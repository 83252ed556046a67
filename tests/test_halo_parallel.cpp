// Backend bit-identity tests for the parallel halo-analysis chain: FOF
// linking blocks, the parallel k-d tree build, the per-halo property
// fan-out in the core pipeline, the property kernels themselves, and the
// AVX2 tile kernel of the MBP center finder against the scalar sum.
// Everything here asserts EXACT equality between Serial and ThreadPool —
// the dpp contract — not tolerance-based agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "halo/center_finder.h"
#include "halo/fof.h"
#include "halo/kdtree.h"
#include "halo/so_mass.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "stats/concentration.h"
#include "stats/halo_shape.h"
#include "stats/merger_tree.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::halo;
using sim::ParticleSet;

ParticleSet random_particles(std::size_t n, double box, std::uint64_t seed,
                             std::int64_t tag0 = 0) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0,
                tag0 + static_cast<std::int64_t>(i));
  return p;
}

/// Blobby universe with background noise — enough structure for FOF to
/// find real halos, enough noise to exercise pruning.
ParticleSet blob_universe(double box, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 15; ++h) {
    const double cx = rng.uniform(1.0, box - 1.0);
    const double cy = rng.uniform(1.0, box - 1.0);
    const double cz = rng.uniform(1.0, box - 1.0);
    const auto n = static_cast<std::size_t>(rng.uniform(80, 500));
    for (std::size_t i = 0; i < n; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.2)),
                  static_cast<float>(rng.normal(cy, 0.2)),
                  static_cast<float>(rng.normal(cz, 0.2)), 0, 0, 0, tag++);
  }
  for (int i = 0; i < 2000; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0, tag++);
  return p;
}

/// Everything that defines a FOF catalog, for exact comparison.
using HaloTuple =
    std::tuple<std::int64_t, std::vector<std::uint32_t>, std::uint32_t>;

std::vector<HaloTuple> to_tuples(const std::vector<FofHalo>& halos) {
  std::vector<HaloTuple> out;
  out.reserve(halos.size());
  for (const auto& h : halos) out.emplace_back(h.id, h.members, h.min_tag_member);
  return out;
}

/// Halo id → member set: the partition, whatever the member order.
std::map<std::int64_t, std::set<std::uint32_t>> member_sets(
    const std::vector<FofHalo>& halos) {
  std::map<std::int64_t, std::set<std::uint32_t>> m;
  for (const auto& h : halos)
    m[h.id] = std::set<std::uint32_t>(h.members.begin(), h.members.end());
  return m;
}

// ------------------------------------------------------------ parallel FOF --

TEST(ParallelFof, BitIdenticalAcrossGrainsAndBackends) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 101);
  FofConfig serial_cfg;
  serial_cfg.linking_length = 0.3;
  serial_cfg.min_size = 40;
  const auto reference =
      to_tuples(fof_find(p, Periodicity::all(box), serial_cfg));
  ASSERT_GT(reference.size(), 5u);

  for (const std::size_t grain : {std::size_t{0}, std::size_t{64},
                                  std::size_t{1024}}) {
    FofConfig cfg = serial_cfg;
    cfg.backend = dpp::Backend::ThreadPool;
    cfg.grain = grain;
    EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference)
        << "grain " << grain;
  }
  // Serial with an explicit grain must be unchanged too (blocks don't
  // affect exact components).
  FofConfig cfg = serial_cfg;
  cfg.grain = 64;
  EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference);
}

TEST(ParallelFof, MatchesBruteForce) {
  const double box = 16.0;
  Rng rng(7);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 6; ++h) {
    const double cx = rng.uniform(1.0, 15.0), cy = rng.uniform(1.0, 15.0),
                 cz = rng.uniform(1.0, 15.0);
    for (int i = 0; i < 120; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.25)),
                  static_cast<float>(rng.normal(cy, 0.25)),
                  static_cast<float>(rng.normal(cz, 0.25)), 0, 0, 0, tag++);
  }
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  cfg.backend = dpp::Backend::ThreadPool;
  cfg.grain = 32;
  const auto tree_halos = fof_find(p, Periodicity::all(box), cfg);
  const auto brute_halos = fof_brute_force(p, Periodicity::all(box), cfg);
  ASSERT_EQ(tree_halos.size(), brute_halos.size());
  EXPECT_EQ(member_sets(tree_halos), member_sets(brute_halos));
}

// ------------------------------------------- exactness of the leaf linker --
//
// Each input is built so that one way of getting the per-leaf walk wrong
// changes the partition: a pair at exactly b (the link is `<=`), pairs
// whose leaves lie on either side of a periodic seam, sizes around the leaf
// size, and subtrees that neighbouring leaves unite outright. min_size 1
// keeps every component, singletons included, so the whole partition is
// compared with the all-pairs reference.

void expect_exact_partition(const ParticleSet& p, const Periodicity& per,
                            double linking_length) {
  FofConfig cfg;
  cfg.linking_length = linking_length;
  cfg.min_size = 1;
  const auto expected = member_sets(fof_brute_force(p, per, cfg));
  EXPECT_EQ(member_sets(fof_find(p, per, cfg)), expected) << "Serial";
  cfg.backend = dpp::Backend::ThreadPool;
  for (const std::size_t grain :
       {std::size_t{0}, std::size_t{64}, std::size_t{1024}}) {
    cfg.grain = grain;
    EXPECT_EQ(member_sets(fof_find(p, per, cfg)), expected)
        << "ThreadPool grain " << grain;
  }
}

void add_particle(ParticleSet& p, double x, double y, double z) {
  p.push_back(static_cast<float>(x), static_cast<float>(y),
              static_cast<float>(z), 0, 0, 0,
              static_cast<std::int64_t>(p.size()));
}

/// `count` particles uniform in the cube [x, x+side) × [y, y+side) ×
/// [z, z+side).
void add_cube(ParticleSet& p, Rng& rng, int count, double x, double y,
              double z, double side) {
  for (int k = 0; k < count; ++k)
    add_particle(p, rng.uniform(x, x + side), rng.uniform(y, y + side),
                 rng.uniform(z, z + side));
}

TEST(ExactFof, PairAtExactlyTheLinkingLengthLinks) {
  // Dyadic offsets, so every difference, square and sum is exact: each
  // pair's dist² equals b² = (5/8)² in double. Particles 2b away widen
  // the leaf boxes, so the pair test, not a box bound, must accept
  // dist² == b².
  const double b = 0.625;
  ParticleSet p;
  const double offsets[][3] = {
      {0.625, 0, 0}, {0, 0.625, 0}, {0, 0, 0.625}, {0.375, 0.5, 0}};
  for (int k = 0; k < 4; ++k) {
    const double x = 1.0 + 3.0 * k, y = 2.0, z = 2.0;
    add_particle(p, x, y, z);
    add_particle(p, x + offsets[k][0], y + offsets[k][1], z + offsets[k][2]);
    add_particle(p, x - 1.25, y, z);
    add_particle(p, x, y + 1.25, z + 1.25);
  }
  // (2, 3, 6)/8 has length 7/8.
  add_particle(p, 20.0, 2.0, 2.0);
  add_particle(p, 20.25, 2.375, 2.75);
  add_particle(p, 20.0, 0.25, 2.0);
  add_particle(p, 21.75, 2.0, 2.0);
  expect_exact_partition(p, Periodicity::none(), b);
  expect_exact_partition(p, Periodicity::none(), 0.875);
  expect_exact_partition(p, Periodicity::all(32.0), b);
}

TEST(ExactFof, CoincidentParticles) {
  ParticleSet p;
  auto add_copies = [&](int count, double x, double y, double z) {
    for (int k = 0; k < count; ++k) add_particle(p, x, y, z);
  };
  add_copies(12, 3.0, 3.0, 3.0);   // zero-width leaves
  add_copies(5, 3.25, 3.0, 3.0);   // within b of them
  add_copies(9, 5.0, 5.0, 5.0);    // apart
  add_copies(3, 0.0, 0.0, 0.0);    // on the seam
  add_copies(3, 7.875, 0.0, 0.0);  // its periodic image is within b
  Rng rng(31);
  add_cube(p, rng, 40, 0, 0, 0, 8);
  expect_exact_partition(p, Periodicity::none(), 0.25);
  expect_exact_partition(p, Periodicity::all(8.0), 0.25);
}

TEST(ExactFof, PairsStraddlingPeriodicSeams) {
  // Pairs across the x, y and z faces of an 8-box, some at exactly
  // b = 1/4 through the fold (0.125 ↔ 7.875), corner groups, and uniform
  // filler.
  const double box = 8.0;
  ParticleSet p;
  Rng rng(32);
  for (int k = 0; k < 6; ++k) {
    const double u = rng.uniform(1, 7), v = rng.uniform(1, 7);
    add_particle(p, 0.125, u, v);
    add_particle(p, 7.875, u, v);
    add_particle(p, u, 0.05, v);
    add_particle(p, u, 7.9, v);
    add_particle(p, u, v, 0.125);
    add_particle(p, u, v, 7.875);
    add_cube(p, rng, 1, 0, 7.8, 0, 0.2);
    add_cube(p, rng, 1, 7.8, 0, 7.8, 0.2);
  }
  add_cube(p, rng, 300, 0, 0, 0, box);
  expect_exact_partition(p, Periodicity::xy(box), 0.25);
  expect_exact_partition(p, Periodicity::all(box), 0.25);
}

TEST(ExactFof, SizesAroundTheLeafSize) {
  for (const int n : {0, 1, 2, 8, 9, 17}) {
    ParticleSet p;
    Rng rng(40 + n);
    add_cube(p, rng, n, 0, 0, 0, 2);
    SCOPED_TRACE(n);
    expect_exact_partition(p, Periodicity::none(), 0.6);
    expect_exact_partition(p, Periodicity::all(2.0), 0.6);
  }
}

TEST(ExactFof, WholeNodesUnitedWithWholeLeaves) {
  // A dense clump: a cube of side 0.1 (diameter < b) holds 400 particles,
  // so the leaves around it unite whole subtrees of it outright. A second
  // cube 0.3 away and sparser particles around the first give pairs on
  // both sides of b.
  const double b = 0.2;
  ParticleSet p;
  Rng rng(50);
  add_cube(p, rng, 400, 4.0, 4.0, 4.0, 0.1);
  add_cube(p, rng, 200, 4.4, 4.0, 4.0, 0.1);
  add_cube(p, rng, 300, 3.75, 3.75, 3.75, 0.6);
  add_cube(p, rng, 300, 0, 0, 0, 8);
  expect_exact_partition(p, Periodicity::none(), b);
  expect_exact_partition(p, Periodicity::all(8.0), b);

  // Two 32-particle trees (leaf size 8) whose one outright union is the
  // only path between parts of a component. Eight far particles at x = −5
  // make x the root's split, so the leaves are, in preorder, the far eight,
  // L at x = 0, then N's two leaves at x = 0.3. With b = 1, all of N is
  // within b of all of L:
  // - L is one point; N's leaves sit at y = ∓0.6, 1.2 apart, so only the
  //   union of L with every member of N joins them;
  // - L's halves sit at y = ∓0.55, 1.1 apart, and N is one point, so only
  //   the union of every member of L with N joins them.
  for (const double spread_l : {0.0, 0.55}) {
    ParticleSet q;
    for (int k = 0; k < 8; ++k) add_particle(q, -5.0, 0.0, 0.0);
    for (int k = 0; k < 8; ++k)
      add_particle(q, 0.0, k < 4 ? -spread_l : spread_l, 0.0);
    const double spread_n = spread_l > 0.0 ? 0.0 : 0.6;
    for (int k = 0; k < 16; ++k)
      add_particle(q, 0.3, k < 8 ? -spread_n : spread_n, 0.0);
    SCOPED_TRACE(spread_l);
    expect_exact_partition(q, Periodicity::none(), 1.0);
  }
}

TEST(ParallelFof, MinTagMemberIsArgMin) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 55);
  // Scramble tags so the min-tag member isn't trivially the first member.
  Rng rng(56);
  for (std::size_t i = 0; i < p.size(); ++i)
    std::swap(p.tag[i],
              p.tag[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                             static_cast<double>(p.size() - 1))]);
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    FofConfig cfg;
    cfg.linking_length = 0.3;
    cfg.min_size = 40;
    cfg.backend = backend;
    const auto halos = fof_find(p, Periodicity::all(box), cfg);
    ASSERT_GT(halos.size(), 3u);
    for (const auto& h : halos) {
      EXPECT_EQ(p.tag[h.min_tag_member], h.id);
      std::int64_t min_tag = p.tag[h.members.front()];
      for (const auto m : h.members) min_tag = std::min(min_tag, p.tag[m]);
      EXPECT_EQ(min_tag, h.id);
      EXPECT_TRUE(std::find(h.members.begin(), h.members.end(),
                            h.min_tag_member) != h.members.end());
    }
  }
}

class ParallelDistFof : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ParallelDistFof, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(ParallelDistFof, BitIdenticalToSerialBackend) {
  const int P = GetParam();
  sim::SyntheticConfig scfg;
  scfg.box = 32.0;
  scfg.halo_count = 20;
  scfg.min_particles = 50;
  scfg.max_particles = 600;
  scfg.background_particles = 600;
  scfg.subclump_fraction = 0.0;
  scfg.seed = 77;

  auto run = [&](dpp::Backend backend, std::size_t grain) {
    std::vector<std::vector<HaloTuple>> per_rank(
        static_cast<std::size_t>(P));
    comm::run_spmd(P, [&](comm::Comm& c) {
      sim::Cosmology cosmo;
      auto u = sim::generate_synthetic(c, cosmo, scfg);
      sim::SlabDecomposition decomp(P, scfg.box);
      FofConfig cfg;
      cfg.linking_length = 0.35;
      cfg.min_size = 40;
      cfg.backend = backend;
      cfg.grain = grain;
      auto result = fof_distributed(c, decomp, u.local, cfg, 3.0);
      per_rank[static_cast<std::size_t>(c.rank())] = to_tuples(result.halos);
    });
    return per_rank;
  };

  const auto reference = run(dpp::Backend::Serial, 0);
  std::size_t total = 0;
  for (const auto& r : reference) total += r.size();
  ASSERT_GT(total, 5u);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 0), reference);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 128), reference);
}

// -------------------------------------------------------- parallel k-d tree --

TEST(ParallelKdTree, LayoutBackendInvariant) {
  const double box = 32.0;
  // Above kParallelBuildCutoff so several levels really build in parallel.
  ParticleSet p = random_particles(20000, box, 5);
  ASSERT_GT(p.size(), KdTree::kParallelBuildCutoff);
  const KdTree a =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree b =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.root(), b.root());
  const auto ia = a.index(), ib = b.index();
  ASSERT_EQ(ia.size(), ib.size());
  EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
  for (std::size_t id = 0; id < a.node_count(); ++id) {
    const auto& na = a.node(static_cast<std::int32_t>(id));
    const auto& nb = b.node(static_cast<std::int32_t>(id));
    ASSERT_EQ(na.begin, nb.begin) << "node " << id;
    ASSERT_EQ(na.end, nb.end) << "node " << id;
    ASSERT_EQ(na.left, nb.left) << "node " << id;
    ASSERT_EQ(na.right, nb.right) << "node " << id;
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(na.lo[d], nb.lo[d]) << "node " << id;
      ASSERT_EQ(na.hi[d], nb.hi[d]) << "node " << id;
    }
  }
}

TEST(ParallelKdTree, QueriesMatchSerialTree) {
  const double box = 16.0;
  ParticleSet p = random_particles(6000, box, 9);
  const KdTree serial =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree pooled =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  Rng rng(10);
  for (int q = 0; q < 25; ++q) {
    const double qx = rng.uniform(0, box), qy = rng.uniform(0, box),
                 qz = rng.uniform(0, box);
    const double r = rng.uniform(0.3, 2.5);
    std::set<std::uint32_t> sa, sb;
    serial.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sa.insert(i); });
    pooled.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sb.insert(i); });
    EXPECT_EQ(sa, sb) << "query " << q;
    EXPECT_EQ(serial.k_nearest(qx, qy, qz, 12), pooled.k_nearest(qx, qy, qz, 12));
  }
}

// ------------------------------------------------------- per-halo fan-out --

std::vector<std::vector<std::byte>> run_pipeline(dpp::Backend backend, int P) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 12;
  ucfg.min_particles = 60;
  ucfg.max_particles = 1200;
  ucfg.background_particles = 500;
  ucfg.subclump_fraction = 0.0;
  ucfg.seed = 31;
  std::vector<std::vector<std::byte>> per_rank(static_cast<std::size_t>(P));
  comm::run_spmd(P, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(P, ucfg.box);
    core::InSituAnalysisManager manager(c, decomp, ucfg.box,
                                        u.total_particles, backend);
    core::register_full_halo_pipeline(manager);
    manager.configure(core::CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.3\nmin_size 40\noverload 2.0\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    per_rank[static_cast<std::size_t>(c.rank())] =
        stats::catalog_to_bytes(ctx.catalog);
  });
  return per_rank;
}

TEST(PerHaloFanout, CatalogBitIdenticalSerialVsThreadPool) {
  const auto serial = run_pipeline(dpp::Backend::Serial, 2);
  const auto pooled = run_pipeline(dpp::Backend::ThreadPool, 2);
  std::size_t bytes = 0;
  for (const auto& r : serial) bytes += r.size();
  ASSERT_GT(bytes, 0u);
  EXPECT_EQ(serial, pooled);
}

// ------------------------------------------------------- property kernels --

TEST(ParallelProperties, KernelsBitIdenticalAcrossBackends) {
  const double box = 16.0;
  Rng rng(21);
  ParticleSet p;
  for (int i = 0; i < 3000; ++i)
    p.push_back(static_cast<float>(rng.normal(8.0, 0.4)),
                static_cast<float>(rng.normal(8.0, 0.7)),
                static_cast<float>(rng.normal(8.0, 1.1)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);

  for (const std::size_t grain : {std::size_t{0}, std::size_t{7},
                                  std::size_t{256}}) {
    SoConfig sa, sb;
    sa.box = sb.box = box;
    sa.mean_density = sb.mean_density = 1.0;
    sb.backend = dpp::Backend::ThreadPool;
    sa.grain = sb.grain = grain;
    const auto soa = so_mass(p, members, 8.0, 8.0, 8.0, sa);
    const auto sob = so_mass(p, members, 8.0, 8.0, 8.0, sb);
    EXPECT_EQ(soa.radius, sob.radius) << "grain " << grain;
    EXPECT_EQ(soa.mass, sob.mass) << "grain " << grain;
    EXPECT_EQ(soa.count, sob.count) << "grain " << grain;

    const auto sha = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::Serial, grain);
    const auto shb = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(sha.a, shb.a) << "grain " << grain;
    EXPECT_EQ(sha.b_over_a, shb.b_over_a) << "grain " << grain;
    EXPECT_EQ(sha.c_over_a, shb.c_over_a) << "grain " << grain;

    const auto ca = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                         dpp::Backend::Serial, grain);
    const auto cb = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                         dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(ca.c, cb.c) << "grain " << grain;
    EXPECT_EQ(ca.r_half, cb.r_half) << "grain " << grain;

    const auto fa = stats::concentration_profile_fit(
        p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::Serial, grain);
    const auto fb = stats::concentration_profile_fit(
        p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::ThreadPool, grain);
    EXPECT_EQ(fa.c, fb.c) << "grain " << grain;
  }
}

// ----------------------------------------------------- MBP tile kernel --

/// Gaussian blob of n particles, wrapped into [0, box) when box > 0.
ParticleSet wrapped_blob(std::size_t n, double c, double sigma, double box,
                         std::uint64_t seed) {
  Rng rng(seed);
  auto coord = [&] {
    double v = rng.normal(c, sigma);
    if (box > 0.0) v -= box * std::floor(v / box);
    return static_cast<float>(v);
  };
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = coord(), y = coord(), z = coord();
    p.push_back(x, y, z, 0, 0, 0, static_cast<std::int64_t>(i));
  }
  return p;
}

std::vector<std::uint32_t> all_members(const ParticleSet& p) {
  std::vector<std::uint32_t> m(p.size());
  std::iota(m.begin(), m.end(), 0u);
  return m;
}

constexpr const char* kNoAvx2 =
    "no AVX2 on this CPU (or not an x86-64 build): the center finder runs "
    "the scalar exact_potential here, so there is no tile kernel to compare";

/// Calls the AVX2 tile kernel directly over every member and compares each
/// φ bit for bit with the scalar reference exact_potential.
void expect_kernel_bitwise(const ParticleSet& p,
                           std::span<const std::uint32_t> members,
                           const CenterConfig& cfg, const std::string& what) {
#ifdef COSMO_CENTER_AVX2
  std::vector<double> phi(members.size());
  halo::detail::potentials_avx2(p, members, 0, members.size(), cfg, phi);
  for (std::size_t k = 0; k < members.size(); ++k) {
    const double ref = halo::detail::exact_potential(p, members, k, cfg);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(phi[k]),
              std::bit_cast<std::uint64_t>(ref))
        << what << ": target " << k << " of " << members.size()
        << ", kernel " << phi[k] << " vs scalar " << ref;
  }
#else
  (void)p, (void)members, (void)cfg, (void)what;
#endif
}

TEST(MbpTileKernel, BitwiseEqualToScalarForEveryRemainder) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  CenterConfig cfg;
  cfg.box = 10.0;
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 1001u}) {
    const ParticleSet p = wrapped_blob(n, 5.0, 0.4, cfg.box, 100 + n);
    expect_kernel_bitwise(p, all_members(p), cfg, "n=" + std::to_string(n));
  }
}

TEST(MbpTileKernel, BitwiseEqualAcrossThePeriodicSeam) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  // Centred on the box corner: every axis straddles the seam, so pairs
  // fold through both the d > box/2 and the d < −box/2 branch.
  CenterConfig cfg;
  cfg.box = 16.0;
  const ParticleSet p = wrapped_blob(203, 0.0, 0.6, cfg.box, 7);
  for (const auto* axis : {&p.x, &p.y, &p.z}) {
    ASSERT_TRUE(std::any_of(axis->begin(), axis->end(),
                            [](float v) { return v < 1.0f; }));
    ASSERT_TRUE(std::any_of(axis->begin(), axis->end(),
                            [&](float v) { return v > cfg.box - 1.0; }));
  }
  expect_kernel_bitwise(p, all_members(p), cfg, "seam");
  // box = 0 is the non-periodic case: the same particles, never folded.
  cfg.box = 0.0;
  expect_kernel_bitwise(p, all_members(p), cfg, "box=0");
}

TEST(MbpTileKernel, BitwiseEqualWithCoincidentParticles) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  // Every position three times over, so d = 0 for non-self pairs. Then no
  // softening at all: each coincident pair adds −inf, and the self pair,
  // whose term is +inf too, must still add nothing (not inf·0 = NaN).
  const ParticleSet base = wrapped_blob(23, 5.0, 0.3, 10.0, 8);
  ParticleSet p;
  for (int copy = 0; copy < 3; ++copy)
    for (std::size_t i = 0; i < base.size(); ++i)
      p.push_back(base.x[i], base.y[i], base.z[i], 0, 0, 0,
                  static_cast<std::int64_t>(p.size()));
  CenterConfig cfg;
  cfg.box = 10.0;
  expect_kernel_bitwise(p, all_members(p), cfg, "coincident");
  cfg.softening = 0.0;
  expect_kernel_bitwise(p, all_members(p), cfg, "coincident, no softening");
  const ParticleSet single = wrapped_blob(9, 5.0, 0.3, 10.0, 9);
  expect_kernel_bitwise(single, all_members(single), cfg, "no softening");
}

TEST(MbpTileKernel, BitwiseEqualOnPermutedSubset) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  // FOF halos index a larger particle set in no particular order.
  CenterConfig cfg;
  cfg.box = 12.0;
  const ParticleSet p = wrapped_blob(3000, 11.5, 0.8, cfg.box, 10);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < p.size(); i += 1 + i % 5) members.push_back(i);
  Rng rng(11);
  for (std::size_t i = members.size() - 1; i > 0; --i)
    std::swap(members[i], members[rng.below(i + 1)]);
  if (members.size() % 4 == 0) members.pop_back();  // keep a short tile
  expect_kernel_bitwise(p, members, cfg, "permuted subset");
}

TEST(MbpTileKernel, MonsterHaloSerialEqualsPoolEqualsReference) {
  // Above the one-tile-per-chunk size, on the real NFW profile. Runs on
  // every host: without AVX2 it checks the scalar path the same way.
  CenterConfig cfg;
  cfg.box = 48.0;
  ParticleSet p(8203);
  Rng rng(12);
  sim::detail::NfwSampler nfw(p, 5.0);
  nfw.draw(rng, 47.2, 24.0, 0.5, 1.6, p.size(), 0, 0.0);
  nfw.flush();
  p.wrap_positions(static_cast<float>(cfg.box));
  const auto members = all_members(p);
  ASSERT_GE(members.size(), 8192u);

  std::vector<double> ref(members.size());
  dpp::tabulate<double>(dpp::Backend::ThreadPool, ref, [&](std::size_t k) {
    return halo::detail::exact_potential(p, members, k, cfg);
  });
  std::size_t best = 0;
  for (std::size_t k = 1; k < ref.size(); ++k)
    if (ref[k] < ref[best]) best = k;

  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const auto r = mbp_center_brute(backend, p, members, cfg);
    EXPECT_EQ(r.member_index, best) << dpp::to_string(backend);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.potential),
              std::bit_cast<std::uint64_t>(ref[best]))
        << dpp::to_string(backend);
  }
}

TEST(ParallelMergerTree, LinksBackendInvariant) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 61);
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  const auto halos0 = fof_find(p, Periodicity::all(box), cfg);
  ASSERT_GT(halos0.size(), 3u);
  // Step 1: drift every particle slightly — halos persist, ids shift.
  ParticleSet q = p;
  Rng rng(62);
  for (std::size_t i = 0; i < q.size(); ++i)
    q.x[i] = static_cast<float>(q.x[i] + rng.uniform(-0.02, 0.02));
  const auto halos1 = fof_find(q, Periodicity::all(box), cfg);

  auto tracked = [](const ParticleSet& ps, const std::vector<FofHalo>& hs) {
    std::vector<stats::TrackedHalo> out;
    for (const auto& h : hs) {
      stats::TrackedHalo t;
      t.id = h.id;
      for (const auto m : h.members) t.tags.push_back(ps.tag[m]);
      out.push_back(std::move(t));
    }
    return out;
  };

  auto build_links = [&](dpp::Backend backend) {
    stats::MergerTreeBuilder b;
    b.add_snapshot(0, tracked(p, halos0));
    b.add_snapshot(1, tracked(q, halos1));
    b.build(backend);
    std::vector<std::tuple<std::size_t, std::int64_t, std::int64_t,
                           std::size_t>>
        out;
    for (const auto& l : b.links())
      out.emplace_back(l.step, l.progenitor, l.descendant,
                       l.shared_particles);
    return out;
  };

  const auto serial = build_links(dpp::Backend::Serial);
  ASSERT_GT(serial.size(), 2u);
  EXPECT_EQ(build_links(dpp::Backend::ThreadPool), serial);
}

}  // namespace
