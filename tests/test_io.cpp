// Tests for CosmoIO: round trips, CRC corruption detection, truncation
// rejection, aggregated multi-rank files, and the filesystem cost models.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "comm/comm.h"
#include "io/aggregated.h"
#include "io/cosmo_io.h"
#include "io/fs_model.h"
#include "sim/particles.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::io;
using sim::ParticleSet;
namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cosmoio_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

ParticleSet sample_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, 64)),
                static_cast<float>(rng.uniform(0, 64)),
                static_cast<float>(rng.uniform(0, 64)),
                static_cast<float>(rng.normal()),
                static_cast<float>(rng.normal()),
                static_cast<float>(rng.normal()),
                static_cast<std::int64_t>(seed * 100000 + i),
                static_cast<float>(-rng.uniform()));
  return p;
}

void expect_equal(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tag[i], b.tag[i]);
    EXPECT_FLOAT_EQ(a.x[i], b.x[i]);
    EXPECT_FLOAT_EQ(a.y[i], b.y[i]);
    EXPECT_FLOAT_EQ(a.z[i], b.z[i]);
    EXPECT_FLOAT_EQ(a.vx[i], b.vx[i]);
    EXPECT_FLOAT_EQ(a.vy[i], b.vy[i]);
    EXPECT_FLOAT_EQ(a.vz[i], b.vz[i]);
    EXPECT_FLOAT_EQ(a.phi[i], b.phi[i]);
  }
}

TEST_F(IoTest, SingleBlockRoundTrip) {
  const fs::path file = dir_ / "one.cosmo";
  ParticleSet p = sample_particles(1000, 1);
  {
    CosmoIoWriter w(file, {64.0, 1.0, 1000, 0});
    w.write_block(p, 0);
    w.finalize();
  }
  CosmoIoReader r(file);
  EXPECT_EQ(r.num_blocks(), 1u);
  EXPECT_EQ(r.block_particles(0), 1000u);
  EXPECT_DOUBLE_EQ(r.info().box, 64.0);
  EXPECT_DOUBLE_EQ(r.info().scale_factor, 1.0);
  EXPECT_EQ(r.info().total_particles, 1000u);
  expect_equal(r.read_block(0), p);
}

TEST_F(IoTest, MultiBlockPreservesBlockIdentity) {
  const fs::path file = dir_ / "multi.cosmo";
  std::vector<ParticleSet> blocks;
  for (std::uint64_t b = 0; b < 5; ++b)
    blocks.push_back(sample_particles(100 + 50 * b, b));
  {
    CosmoIoWriter w(file, {64.0, 0.5, 0, 0});
    for (std::size_t b = 0; b < blocks.size(); ++b)
      w.write_block(blocks[b], static_cast<std::uint32_t>(10 + b));
    w.finalize();
  }
  CosmoIoReader r(file);
  ASSERT_EQ(r.num_blocks(), 5u);
  for (std::uint32_t b = 0; b < 5; ++b) {
    EXPECT_EQ(r.block_writer_rank(b), 10 + b);
    expect_equal(r.read_block(b), blocks[b]);
  }
  // read_all concatenates in block order.
  ParticleSet all = r.read_all();
  std::size_t expected = 0;
  for (const auto& b : blocks) expected += b.size();
  EXPECT_EQ(all.size(), expected);
}

TEST_F(IoTest, EmptyBlockIsValid) {
  const fs::path file = dir_ / "empty.cosmo";
  {
    CosmoIoWriter w(file, {64.0, 1.0, 0, 0});
    w.write_block(ParticleSet{}, 0);
    w.finalize();
  }
  CosmoIoReader r(file);
  EXPECT_EQ(r.read_block(0).size(), 0u);
}

TEST_F(IoTest, UnfinalizedFileIsRejected) {
  const fs::path file = dir_ / "crashed.cosmo";
  {
    CosmoIoWriter w(file, {64.0, 1.0, 100, 0});
    w.write_block(sample_particles(100, 2), 0);
    // no finalize — simulates a writer crash
  }
  EXPECT_THROW(CosmoIoReader r(file), Error);
}

TEST_F(IoTest, CorruptedDataFailsCrc) {
  const fs::path file = dir_ / "corrupt.cosmo";
  {
    CosmoIoWriter w(file, {64.0, 1.0, 500, 0});
    w.write_block(sample_particles(500, 3), 0);
    w.finalize();
  }
  // Flip one byte in the middle of the particle payload.
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char c;
    f.seekg(200);
    f.get(c);
    f.seekp(200);
    f.put(static_cast<char>(c ^ 0x10));
  }
  CosmoIoReader r(file);
  EXPECT_THROW(r.read_block(0), Error);
}

TEST_F(IoTest, GarbageFileIsRejected) {
  const fs::path file = dir_ / "garbage.cosmo";
  {
    std::ofstream f(file, std::ios::binary);
    f << "this is not a cosmo file at all, not even close.............";
  }
  EXPECT_THROW(CosmoIoReader r(file), Error);
}

TEST_F(IoTest, BlockIndexOutOfRangeThrows) {
  const fs::path file = dir_ / "range.cosmo";
  {
    CosmoIoWriter w(file, {64.0, 1.0, 10, 0});
    w.write_block(sample_particles(10, 4), 0);
    w.finalize();
  }
  CosmoIoReader r(file);
  EXPECT_THROW(r.read_block(1), Error);
  EXPECT_THROW(r.block_particles(7), Error);
}

class AggRanks : public ::testing::TestWithParam<std::pair<int, int>> {};
INSTANTIATE_TEST_SUITE_P(
    Layouts, AggRanks,
    ::testing::Values(std::pair{4, 2}, std::pair{4, 4}, std::pair{4, 1},
                      std::pair{6, 4}, std::pair{1, 1}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.first) + "per" +
             std::to_string(info.param.second);
    });

TEST_P(AggRanks, AggregatedRoundTripThroughRedistribution) {
  const auto [P, per_file] = GetParam();
  const double box = 64.0;
  const auto dir = fs::temp_directory_path() /
                   ("cosmoagg_" + std::to_string(::getpid()) + "_" +
                    std::to_string(P) + "_" + std::to_string(per_file));
  fs::create_directories(dir);
  const auto base = dir / "snap";

  std::vector<std::int64_t> written_tags, read_tags;
  std::mutex m;
  comm::run_spmd(P, [&, P = P, per_file = per_file](comm::Comm& c) {
    sim::SlabDecomposition decomp(P, box);
    // Each rank owns particles in its slab.
    ParticleSet local;
    Rng rng(900 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 200; ++i)
      local.push_back(static_cast<float>(rng.uniform(0, box)),
                      static_cast<float>(rng.uniform(0, box)),
                      static_cast<float>(rng.uniform(decomp.z_lo(c.rank()),
                                                     decomp.z_hi(c.rank()))),
                      0, 0, 0, c.rank() * 1000 + i);
    {
      std::lock_guard lock(m);
      for (const auto t : local.tag) written_tags.push_back(t);
    }
    auto wr = write_aggregated(c, base, local, {box, 1.0, 0, 0}, per_file);
    // Expected file count: ceil(P / per_file), written by group leaders.
    const int expected_files = (P + per_file - 1) / per_file;
    const auto files_here = static_cast<int>(wr.files.size());
    const int total_files =
        c.allreduce_value(files_here, comm::ReduceOp::Sum);
    EXPECT_EQ(total_files, expected_files);
    c.barrier();

    // Read back: every group leader's file, all ranks participate.
    std::vector<fs::path> files;
    for (int g = 0; g < expected_files; ++g)
      files.push_back(aggregated_file_path(base, g));
    for (const auto& f : files) {
      EXPECT_TRUE(fs::exists(f));
      EXPECT_TRUE(fs::exists(trigger_path(f)));
    }
    ParticleSet owned = decomp.redistribute(
        c, read_aggregated_blocks(files, c.rank(), c.size()));
    for (std::size_t i = 0; i < owned.size(); ++i)
      EXPECT_EQ(decomp.owner_of(owned.z[i]), c.rank());
    std::lock_guard lock(m);
    for (const auto t : owned.tag) read_tags.push_back(t);
  });
  std::sort(written_tags.begin(), written_tags.end());
  std::sort(read_tags.begin(), read_tags.end());
  EXPECT_EQ(written_tags, read_tags);
  fs::remove_all(dir);
}

TEST(FsModel, TitanProfileMatchesPaperIoTime) {
  // §4.1: reading one 20 TB snapshot takes roughly 10 minutes.
  const auto titan = FilesystemModel::titan_lustre();
  const double t = titan.read_seconds(20e12);
  EXPECT_GT(t, 8 * 60.0);
  EXPECT_LT(t, 12 * 60.0);
}

TEST(FsModel, TimeScalesWithBytes) {
  FilesystemModel m{1e9, 0.5};
  EXPECT_NEAR(m.write_seconds(0), 0.5, 1e-12);
  EXPECT_NEAR(m.write_seconds(2e9), 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(m.read_seconds(12345), m.write_seconds(12345));
}

TEST(InterconnectModel, RedistributionTimeSane) {
  const auto g = InterconnectModel::titan_gemini();
  // 20 TB redistribution ≈ 10 minutes (§4.1).
  const double t = g.redistribute_seconds(20e12);
  EXPECT_GT(t, 7 * 60.0);
  EXPECT_LT(t, 13 * 60.0);
}

}  // namespace
