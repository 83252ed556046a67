// Robustness and edge-case sweep across modules: degenerate inputs, size
// extremes, and cross-module properties not covered by the per-module
// suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <utility>

#include "comm/comm.h"
#include "core/workflows.h"
#include "dpp/primitives.h"
#include "faults/faults.h"
#include "fft/fft.h"
#include "halo/fof.h"
#include "halo/so_mass.h"
#include "io/cosmo_io.h"
#include "obs/metrics.h"
#include "sched/batch_scheduler.h"
#include "sim/synthetic.h"
#include "util/retry.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
namespace fs = std::filesystem;

// -------------------------------------------------------------------- comm

TEST(CommRobustness, MegabyteMessageSurvives) {
  comm::run_spmd(2, [&](comm::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> big(1 << 17);  // 1 MiB
      Rng rng(1);
      for (auto& v : big) v = rng.uniform();
      c.send<double>(1, 5, big);
      c.send_value<double>(1, 6, big[12345]);
    } else {
      auto big = c.recv<double>(0, 5);
      ASSERT_EQ(big.size(), std::size_t{1} << 17);
      EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 6), big[12345]);
    }
  });
}

TEST(CommRobustness, ManyInterleavedTags) {
  comm::run_spmd(2, [&](comm::Comm& c) {
    constexpr int kTags = 64;
    if (c.rank() == 0) {
      for (int t = 0; t < kTags; ++t) c.send_value<int>(1, t, 1000 + t);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      for (int t = kTags - 1; t >= 0; --t)
        EXPECT_EQ(c.recv_value<int>(0, t), 1000 + t);
    }
  });
}

TEST(CommRobustness, AlltoallvWithEmptyAndFatBuffers) {
  comm::run_spmd(4, [&](comm::Comm& c) {
    std::vector<std::vector<int>> send(4);
    // Only send to rank (r+1)%4, nothing to others.
    send[static_cast<std::size_t>((c.rank() + 1) % 4)] =
        std::vector<int>(1000, c.rank());
    auto recv = c.alltoallv(send);
    for (int src = 0; src < 4; ++src) {
      if ((src + 1) % 4 == c.rank()) {
        ASSERT_EQ(recv[static_cast<std::size_t>(src)].size(), 1000u);
        EXPECT_EQ(recv[static_cast<std::size_t>(src)][0], src);
      } else {
        EXPECT_TRUE(recv[static_cast<std::size_t>(src)].empty());
      }
    }
  });
}

// --------------------------------------------------------------------- dpp

// n = 1 through every primitive on both backends: one item, one chunk.
TEST(DppRobustness, SizeOneEverything) {
  using dpp::Backend;
  for (auto b : {Backend::Serial, Backend::ThreadPool}) {
    std::vector<int> out(1);
    dpp::tabulate<int>(b, out, [](std::size_t i) {
      return 7 + static_cast<int>(i);
    });
    EXPECT_EQ(out[0], 7);

    std::vector<std::size_t> visited;
    dpp::for_each_index(b, 1, [&](std::size_t i) { visited.push_back(i); });
    EXPECT_EQ(visited, std::vector<std::size_t>{0});

    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    dpp::for_each_chunk(b, 1, [&](std::size_t lo, std::size_t hi) {
      chunks.emplace_back(lo, hi);
    });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 1}));

    std::vector<double> dest{1.0, 2.0};
    dpp::deposit_reduce<double>(b, 1, dest,
                                [](std::span<double> buf, std::size_t i) {
                                  buf[i] += 0.5;
                                  buf[i + 1] += 0.25;
                                });
    EXPECT_EQ(dest, (std::vector<double>{1.5, 2.25}));
  }
}

// --------------------------------------------------------------------- fft

TEST(FftRobustness, NonCubicGridRoundTrip) {
  fft::Grid3 g(4, 8, 16);
  Rng rng(2);
  std::vector<fft::Complex> orig(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.flat()[i] = fft::Complex(rng.normal(), rng.normal());
    orig[i] = g.flat()[i];
  }
  fft::fft_3d(g, false);
  fft::fft_3d(g, true);
  const double scale = 1.0 / 512.0;
  for (std::size_t i = 0; i < g.size(); ++i)
    ASSERT_NEAR(g.flat()[i].real() * scale, orig[i].real(), 1e-10);
}

TEST(FftRobustness, LinearityProperty) {
  Rng rng(3);
  const std::size_t n = 128;
  std::vector<fft::Complex> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = fft::Complex(rng.normal(), rng.normal());
    b[i] = fft::Complex(rng.normal(), rng.normal());
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft::fft_1d(a, false);
  fft::fft_1d(b, false);
  fft::fft_1d(sum, false);
  for (std::size_t i = 0; i < n; ++i) {
    const auto expect = a[i] + 2.0 * b[i];
    ASSERT_NEAR(sum[i].real(), expect.real(), 1e-9);
    ASSERT_NEAR(sum[i].imag(), expect.imag(), 1e-9);
  }
}

// -------------------------------------------------------------------- halo

TEST(HaloRobustness, CoincidentParticlesFormOneHalo) {
  sim::ParticleSet p;
  for (int i = 0; i < 50; ++i) p.push_back(5, 5, 5, 0, 0, 0, i);
  halo::FofConfig cfg;
  cfg.linking_length = 0.1;
  cfg.min_size = 10;
  auto halos = halo::fof_find(p, halo::Periodicity::all(10.0), cfg);
  ASSERT_EQ(halos.size(), 1u);
  EXPECT_EQ(halos[0].members.size(), 50u);
  EXPECT_EQ(halos[0].id, 0);
}

TEST(HaloRobustness, MinSizeOneKeepsIsolatedParticles) {
  sim::ParticleSet p;
  p.push_back(1, 1, 1, 0, 0, 0, 0);
  p.push_back(8, 8, 8, 0, 0, 0, 1);
  halo::FofConfig cfg;
  cfg.linking_length = 0.5;
  cfg.min_size = 1;
  auto halos = halo::fof_find(p, halo::Periodicity::all(10.0), cfg);
  EXPECT_EQ(halos.size(), 2u);
}

TEST(HaloRobustness, EmptyParticleSetFofIsEmpty) {
  sim::ParticleSet p;
  halo::FofConfig cfg;
  EXPECT_TRUE(halo::fof_find(p, {}, cfg).empty());
}

TEST(HaloRobustness, SoMassWithCenterOutsideCloud) {
  Rng rng(4);
  sim::ParticleSet p;
  for (int i = 0; i < 500; ++i)
    p.push_back(static_cast<float>(rng.normal(5, 0.2)),
                static_cast<float>(rng.normal(5, 0.2)),
                static_cast<float>(rng.normal(5, 0.2)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  halo::SoConfig cfg;
  cfg.delta = 200.0;
  cfg.mean_density = 1.0;
  // Center far from the cloud: density never reaches the threshold.
  auto so = halo::so_mass(p, members, 50, 50, 50, cfg);
  EXPECT_EQ(so.count, 0u);
}

TEST(HaloRobustness, FofInvariantUnderParticlePermutation) {
  // Halo ids (min tags) and member-count multisets must not depend on the
  // order particles are stored in.
  sim::ParticleSet p;
  Rng rng(5);
  for (int blob = 0; blob < 5; ++blob) {
    const double cx = 2.0 + blob * 1.7;
    for (int i = 0; i < 80; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.1)),
                  static_cast<float>(rng.normal(5, 0.1)),
                  static_cast<float>(rng.normal(5, 0.1)), 0, 0, 0,
                  blob * 1000 + i);
  }
  halo::FofConfig cfg;
  cfg.linking_length = 0.35;
  cfg.min_size = 40;
  auto ref = halo::fof_find(p, halo::Periodicity::all(12.0), cfg);

  // Shuffle storage order.
  std::vector<std::uint32_t> perm(p.size());
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  sim::ParticleSet shuffled = p.select(perm);
  auto got = halo::fof_find(shuffled, halo::Periodicity::all(12.0), cfg);

  auto key = [](const std::vector<halo::FofHalo>& hs) {
    std::vector<std::pair<std::int64_t, std::size_t>> k;
    for (const auto& h : hs) k.emplace_back(h.id, h.members.size());
    std::sort(k.begin(), k.end());
    return k;
  };
  EXPECT_EQ(key(ref), key(got));
}

// ---------------------------------------------------------------------- io

TEST(IoRobustness, ZeroBlockFileRoundTrips) {
  const auto path = fs::temp_directory_path() /
                    ("zero_" + std::to_string(::getpid()) + ".cosmo");
  {
    io::CosmoIoWriter w(path, {10.0, 1.0, 0, 0});
    w.finalize();
  }
  io::CosmoIoReader r(path);
  EXPECT_EQ(r.num_blocks(), 0u);
  EXPECT_EQ(r.read_all().size(), 0u);
  fs::remove(path);
}

TEST(IoRobustness, TruncatedTableIsRejected) {
  const auto path = fs::temp_directory_path() /
                    ("trunc_" + std::to_string(::getpid()) + ".cosmo");
  {
    io::CosmoIoWriter w(path, {10.0, 1.0, 100, 0});
    sim::ParticleSet p(100);
    w.write_block(p, 0);
    w.finalize();
  }
  // Chop the tail (the block table).
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 8);
  EXPECT_THROW(io::CosmoIoReader r(path), Error);
  fs::remove(path);
}

// ------------------------------------------------------------------- sched

TEST(SchedRobustness, ZeroDurationJobCompletesInstantly) {
  sched::BatchScheduler s({"t", 4, 1.0, 1.0, true, {}});
  auto id = s.submit("instant", 2, 0.0, 5.0);
  s.run_to_completion();
  EXPECT_DOUBLE_EQ(s.job(id).start_time, 5.0);
  EXPECT_DOUBLE_EQ(s.job(id).end_time, 5.0);
}

TEST(SchedRobustness, ExactFitFillsMachine) {
  sched::BatchScheduler s({"t", 8, 1.0, 1.0, true, {}});
  auto a = s.submit("a", 5, 10.0, 0.0);
  auto b = s.submit("b", 3, 10.0, 0.0);
  auto cjob = s.submit("c", 1, 10.0, 0.0);
  s.run_to_completion();
  EXPECT_DOUBLE_EQ(s.job(a).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(b).start_time, 0.0);
  EXPECT_DOUBLE_EQ(s.job(cjob).start_time, 10.0);  // machine was exactly full
}

// ------------------------------------------------------------------ retry

TEST(RetryRobustness, ZeroAttemptsFailsWithoutRunning) {
  util::RetryPolicy policy;
  policy.max_attempts = 0;
  int calls = 0;
  const auto r = util::Retry(policy).run("edge.zero", [&] {
    ++calls;
    return true;
  });
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(calls, 0);
}

TEST(RetryRobustness, BackoffIsClampedAtCeiling) {
  util::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(5);
  policy.max_jitter = std::chrono::milliseconds(0);
  util::Retry retry(policy);
  // 1, 2, 4, then pinned to the 5 ms ceiling forever after.
  EXPECT_EQ(retry.backoff_after("edge.clamp", 0).count(), 1);
  EXPECT_EQ(retry.backoff_after("edge.clamp", 1).count(), 2);
  EXPECT_EQ(retry.backoff_after("edge.clamp", 2).count(), 4);
  for (int attempt = 3; attempt < 7; ++attempt)
    EXPECT_EQ(retry.backoff_after("edge.clamp", attempt).count(), 5);
}

TEST(RetryRobustness, JitterSequenceIsDeterministicPerSeed) {
  util::RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(0);
  policy.max_backoff = std::chrono::milliseconds(0);
  policy.max_jitter = std::chrono::milliseconds(100);
  util::Retry retry(policy);

  faults::Plan plan_a(42), plan_a2(42), plan_b(43);
  std::vector<std::int64_t> seq_a, seq_a2, seq_b;
  {
    faults::ScopedPlan armed(plan_a);
    for (int k = 0; k < 6; ++k)
      seq_a.push_back(retry.backoff_after("edge.jitter", k).count());
  }
  {
    faults::ScopedPlan armed(plan_a2);
    for (int k = 0; k < 6; ++k)
      seq_a2.push_back(retry.backoff_after("edge.jitter", k).count());
  }
  {
    faults::ScopedPlan armed(plan_b);
    for (int k = 0; k < 6; ++k)
      seq_b.push_back(retry.backoff_after("edge.jitter", k).count());
  }
  EXPECT_EQ(seq_a, seq_a2);  // same seed → same schedule
  EXPECT_NE(seq_a, seq_b);   // different seed → different schedule
  for (const auto j : seq_a) {
    EXPECT_GE(j, 0);
    EXPECT_LE(j, 100);
  }
}

TEST(RetryRobustness, ExceptionCountsAsFailedAttempt) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(0);
  int calls = 0;
  const auto r = util::Retry(policy).run("edge.throw", [&]() -> bool {
    if (++calls < 3) throw Error("transient");
    return true;
  });
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.attempts, 3);
}

// --------------------------------------------------------------- workflows

TEST(WorkflowRobustness, SingleRankWorkflowsWork) {
  core::WorkflowProblem p;
  p.universe.box = 24.0;
  p.universe.halo_count = 6;
  p.universe.min_particles = 60;
  p.universe.max_particles = 400;
  p.universe.background_particles = 200;
  p.universe.subclump_fraction = 0.0;
  p.ranks = 1;
  p.analysis_ranks = 1;
  p.ranks_per_file = 1;
  p.threshold = 150;
  p.overload = 2.0;
  p.workdir = fs::temp_directory_path() /
              ("wf1_" + std::to_string(::getpid()));
  auto ri = core::run_workflow(core::WorkflowKind::InSitu, p);
  auto rc = core::run_workflow(core::WorkflowKind::CombinedSimple, p);
  ASSERT_EQ(ri.catalog.size(), rc.catalog.size());
  for (std::size_t i = 0; i < ri.catalog.size(); ++i)
    EXPECT_EQ(ri.catalog[i].id, rc.catalog[i].id);
  fs::remove_all(p.workdir);
}

TEST(WorkflowRobustness, StagingOverflowFallsBackToFilesystem) {
  core::WorkflowProblem p;
  p.universe.box = 24.0;
  p.universe.halo_count = 6;
  p.universe.min_particles = 300;
  p.universe.max_particles = 900;
  p.universe.background_particles = 0;
  p.universe.subclump_fraction = 0.0;
  p.ranks = 2;
  p.analysis_ranks = 1;
  p.threshold = 100;       // defer everything
  p.overload = 2.0;
  p.staging_capacity = 64; // absurdly small burst buffer
  p.workdir = fs::temp_directory_path() /
              ("wfstage_" + std::to_string(::getpid()));
  // The documented burst-buffer overflow behaviour: rejected puts route the
  // rank's Level 2 through the filesystem and the run still completes.
  const auto before =
      obs::MetricsRegistry::instance().counter("workflow.staging_fallbacks")
          .total();
  auto rt = core::run_workflow(core::WorkflowKind::CombinedInTransit, p);
  EXPECT_EQ(rt.staging_fallbacks, 2u);  // every producer rank fell back
  EXPECT_EQ(
      obs::MetricsRegistry::instance().counter("workflow.staging_fallbacks")
              .total() -
          before,
      2u);

  // And the fallback produces the same catalog a filesystem variant does.
  auto rs = core::run_workflow(core::WorkflowKind::CombinedSimple, p);
  ASSERT_EQ(rt.catalog.size(), rs.catalog.size());
  for (std::size_t i = 0; i < rt.catalog.size(); ++i) {
    EXPECT_EQ(rt.catalog[i].id, rs.catalog[i].id);
    EXPECT_EQ(rt.catalog[i].count, rs.catalog[i].count);
  }
  fs::remove_all(p.workdir);
}

// --------------------------------------------------------------- synthetic

TEST(SyntheticRobustness, LogUniformSlopeOneWorks) {
  sim::SyntheticConfig cfg;
  cfg.mass_slope = 1.0;  // the log-uniform special case
  cfg.halo_count = 50;
  cfg.min_particles = 40;
  cfg.max_particles = 4000;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, cfg);
    for (const auto& t : u.truth) {
      EXPECT_GE(t.particles, 40u);
      EXPECT_LE(t.particles, 4001u);
    }
  });
}

}  // namespace
