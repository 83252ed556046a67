// Tests for the halo analysis stack: k-d tree, FOF (vs brute force),
// distributed FOF, MBP center finders, SO mass, and subhalos.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "comm/comm.h"
#include "halo/center_finder.h"
#include "halo/fof.h"
#include "halo/kdtree.h"
#include "halo/so_mass.h"
#include "halo/subhalo.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::halo;
using sim::SyntheticConfig;
using sim::generate_synthetic;
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

ParticleSet gaussian_blob(std::size_t n, double cx, double cy, double cz,
                          double sigma, std::uint64_t seed,
                          std::int64_t tag0 = 0) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.normal(cx, sigma)),
                static_cast<float>(rng.normal(cy, sigma)),
                static_cast<float>(rng.normal(cz, sigma)), 0, 0, 0,
                tag0 + static_cast<std::int64_t>(i));
  return p;
}

// ---------------------------------------------------------------- KdTree --

TEST(KdTree, RangeQueryMatchesBruteForce) {
  const double box = 10.0;
  ParticleSet p = random_particles(500, box, 42);
  KdTree tree = KdTree::over_all(p);
  Rng rng(43);
  for (int q = 0; q < 20; ++q) {
    const double qx = rng.uniform(0, box), qy = rng.uniform(0, box),
                 qz = rng.uniform(0, box);
    const double r = rng.uniform(0.2, 2.0);
    std::set<std::uint32_t> found;
    tree.for_each_in_range(qx, qy, qz, r,
                           [&](std::uint32_t i) { found.insert(i); });
    std::set<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < p.size(); ++i) {
      const double dx = qx - p.x[i], dy = qy - p.y[i], dz = qz - p.z[i];
      if (dx * dx + dy * dy + dz * dz <= r * r) expect.insert(i);
    }
    EXPECT_EQ(found, expect) << "query " << q;
  }
}

TEST(KdTree, PeriodicRangeQueryWrapsAround) {
  const double box = 10.0;
  ParticleSet p;
  p.push_back(0.5f, 5.0f, 5.0f, 0, 0, 0, 0);
  p.push_back(9.5f, 5.0f, 5.0f, 0, 0, 0, 1);
  p.push_back(5.0f, 5.0f, 5.0f, 0, 0, 0, 2);
  KdTree tree = KdTree::over_all(p, Periodicity::all(box));
  std::set<std::uint32_t> found;
  tree.for_each_in_range(0.0, 5.0, 5.0, 1.0,
                         [&](std::uint32_t i) { found.insert(i); });
  EXPECT_EQ(found, (std::set<std::uint32_t>{0, 1}));
}

TEST(KdTree, KNearestMatchesBruteForce) {
  const double box = 10.0;
  ParticleSet p = random_particles(300, box, 7);
  KdTree tree = KdTree::over_all(p);
  Rng rng(8);
  for (int q = 0; q < 10; ++q) {
    const double qx = rng.uniform(0, box), qy = rng.uniform(0, box),
                 qz = rng.uniform(0, box);
    auto knn = tree.k_nearest(qx, qy, qz, 7);
    ASSERT_EQ(knn.size(), 7u);
    // Brute-force distances.
    std::vector<std::pair<double, std::uint32_t>> all;
    for (std::uint32_t i = 0; i < p.size(); ++i) {
      const double dx = qx - p.x[i], dy = qy - p.y[i], dz = qz - p.z[i];
      all.emplace_back(dx * dx + dy * dy + dz * dz, i);
    }
    std::sort(all.begin(), all.end());
    for (std::size_t k = 0; k < 7; ++k) EXPECT_EQ(knn[k], all[k].second);
  }
}

TEST(KdTree, EmptyTreeIsSafe) {
  ParticleSet p;
  KdTree tree = KdTree::over_all(p);
  EXPECT_TRUE(tree.empty());
  int calls = 0;
  tree.for_each_in_range(0, 0, 0, 10.0, [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(tree.k_nearest(0, 0, 0, 3).empty());
}

TEST(KdTree, KNearestOfZeroIsEmpty) {
  ParticleSet p = random_particles(50, 10.0, 10);
  KdTree tree = KdTree::over_all(p);
  EXPECT_TRUE(tree.k_nearest(5, 5, 5, 0).empty());
  EXPECT_TRUE(tree.k_nearest(p.x[0], p.y[0], p.z[0], 0).empty());
}

TEST(KdTree, SubsetTreeOnlySeesSubset) {
  ParticleSet p = random_particles(100, 10.0, 9);
  std::vector<std::uint32_t> subset{1, 5, 9, 13};
  KdTree tree(p, subset);
  std::set<std::uint32_t> found;
  tree.for_each_in_range(5, 5, 5, 20.0,
                         [&](std::uint32_t i) { found.insert(i); });
  EXPECT_EQ(found, std::set<std::uint32_t>(subset.begin(), subset.end()));
}

// ------------------------------------------------------------------- FOF --

struct FofCase {
  std::size_t n;
  std::uint64_t seed;
  double ll;
  bool periodic;
};

class FofMatchesBrute : public ::testing::TestWithParam<FofCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, FofMatchesBrute,
    ::testing::Values(FofCase{200, 1, 0.6, false}, FofCase{200, 2, 0.6, true},
                      FofCase{500, 3, 0.4, false}, FofCase{500, 4, 0.4, true},
                      FofCase{800, 5, 0.3, true},
                      FofCase{300, 6, 1.5, true}),
    [](const auto& info) {
      const auto& c = info.param;
      return "n" + std::to_string(c.n) + "_s" + std::to_string(c.seed) +
             (c.periodic ? "_per" : "_open");
    });

TEST_P(FofMatchesBrute, SameHalosAsBruteForce) {
  const auto c = GetParam();
  const double box = 10.0;
  ParticleSet p = random_particles(c.n, box, c.seed);
  FofConfig cfg;
  cfg.linking_length = c.ll;
  cfg.min_size = 5;
  const Periodicity per = c.periodic ? Periodicity::all(box) : Periodicity{};
  auto fast = fof_find(p, per, cfg);
  auto brute = fof_brute_force(p, per, cfg);
  ASSERT_EQ(fast.size(), brute.size());
  // Compare as sets of member sets (ordering of members may differ).
  auto key = [&](const FofHalo& h) {
    std::vector<std::uint32_t> m(h.members);
    std::sort(m.begin(), m.end());
    return m;
  };
  std::set<std::vector<std::uint32_t>> fs, bs;
  for (const auto& h : fast) fs.insert(key(h));
  for (const auto& h : brute) bs.insert(key(h));
  EXPECT_EQ(fs, bs);
}

TEST(Fof, TwoBlobsSeparateAtSmallLinkingLength) {
  ParticleSet p = gaussian_blob(100, 2.0, 5.0, 5.0, 0.1, 10, 0);
  p.append(gaussian_blob(150, 8.0, 5.0, 5.0, 0.1, 11, 1000));
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  auto halos = fof_find(p, Periodicity::all(10.0), cfg);
  ASSERT_EQ(halos.size(), 2u);
  EXPECT_EQ(halos[0].members.size(), 150u);  // largest first
  EXPECT_EQ(halos[1].members.size(), 100u);
  EXPECT_EQ(halos[0].id, 1000);
  EXPECT_EQ(halos[1].id, 0);
}

TEST(Fof, BlobsMergeAtLargeLinkingLength) {
  ParticleSet p = gaussian_blob(100, 4.5, 5.0, 5.0, 0.1, 10);
  p.append(gaussian_blob(100, 5.5, 5.0, 5.0, 0.1, 11, 1000));
  FofConfig cfg;
  cfg.linking_length = 1.2;
  cfg.min_size = 40;
  auto halos = fof_find(p, Periodicity::all(10.0), cfg);
  ASSERT_EQ(halos.size(), 1u);
  EXPECT_EQ(halos[0].members.size(), 200u);
}

TEST(Fof, MinSizeDiscardsSmallGroups) {
  ParticleSet p = gaussian_blob(30, 5.0, 5.0, 5.0, 0.05, 12);
  FofConfig cfg;
  cfg.linking_length = 0.5;
  cfg.min_size = 40;
  EXPECT_TRUE(fof_find(p, Periodicity::all(10.0), cfg).empty());
  cfg.min_size = 30;
  EXPECT_EQ(fof_find(p, Periodicity::all(10.0), cfg).size(), 1u);
}

TEST(Fof, HaloSpanningPeriodicBoundaryIsOneHalo) {
  // Blob centered at the corner of the box (wraps in all dimensions).
  const double box = 10.0;
  ParticleSet raw = gaussian_blob(200, 0.0, 0.0, 0.0, 0.15, 13);
  raw.wrap_positions(static_cast<float>(box));
  FofConfig cfg;
  cfg.linking_length = 0.4;
  cfg.min_size = 40;
  auto halos = fof_find(raw, Periodicity::all(box), cfg);
  ASSERT_EQ(halos.size(), 1u);
  EXPECT_EQ(halos[0].members.size(), 200u);
}

class DistFofRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, DistFofRanks, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(DistFofRanks, MatchesSerialCatalog) {
  const int P = GetParam();
  SyntheticConfig scfg;
  scfg.box = 32.0;
  scfg.halo_count = 25;
  scfg.min_particles = 50;
  scfg.max_particles = 800;
  scfg.background_particles = 800;
  scfg.subclump_fraction = 0.0;
  scfg.seed = 77;
  FofConfig cfg;
  cfg.linking_length = 0.35;
  cfg.min_size = 40;

  // Serial reference on the full particle set.
  std::map<std::int64_t, std::size_t> reference;  // halo id -> size
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, scfg);
    for (const auto& h : fof_find(u.local, Periodicity::all(scfg.box), cfg))
      reference[h.id] = h.members.size();
  });
  ASSERT_GT(reference.size(), 5u);

  // Distributed run: collect (id, size) from all ranks.
  std::map<std::int64_t, std::size_t> found;
  std::mutex m;
  comm::run_spmd(P, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, scfg);
    sim::SlabDecomposition decomp(P, scfg.box);
    auto result = fof_distributed(c, decomp, u.local, cfg, 3.0);
    std::lock_guard lock(m);
    for (const auto& h : result.halos) {
      EXPECT_EQ(found.count(h.id), 0u) << "halo assigned to two ranks";
      found[h.id] = h.members.size();
    }
  });
  // Every halo appears exactly once with the same id. Membership counts may
  // differ by a few borderline particles for halos straddling the periodic
  // z seam: ghost copies carry float positions shifted by ±box, so pairs
  // within float-epsilon of the linking length can flip (inherent to the
  // overload-region method).
  ASSERT_EQ(found.size(), reference.size());
  for (const auto& [id, size] : reference) {
    ASSERT_TRUE(found.count(id)) << "halo " << id << " lost";
    const auto got = found[id];
    const auto diff = got > size ? got - size : size - got;
    EXPECT_LE(diff, 3u) << "halo " << id << ": " << got << " vs " << size;
  }
}

TEST_P(DistFofRanks, ExactMatchAwayFromSeam) {
  // Halos placed strictly inside (10%, 90%) of the box never touch the
  // periodic z seam, so the distributed catalog must match bit-for-bit.
  const int P = GetParam();
  const double box = 32.0;
  FofConfig cfg;
  cfg.linking_length = 0.35;
  cfg.min_size = 40;

  auto make_particles = [&]() {
    ParticleSet p;
    Rng rng(123);
    std::int64_t tag = 0;
    for (int h = 0; h < 15; ++h) {
      const double cx = rng.uniform(2.0, 30.0);
      const double cy = rng.uniform(2.0, 30.0);
      const double cz = rng.uniform(4.0, 28.0);
      const auto n = static_cast<std::size_t>(rng.uniform(60, 400));
      for (std::size_t i = 0; i < n; ++i)
        p.push_back(static_cast<float>(rng.normal(cx, 0.15)),
                    static_cast<float>(rng.normal(cy, 0.15)),
                    static_cast<float>(rng.normal(cz, 0.15)), 0, 0, 0, tag++);
    }
    return p;
  };

  std::map<std::int64_t, std::size_t> reference;
  {
    ParticleSet p = make_particles();
    for (const auto& h : fof_find(p, Periodicity::all(box), cfg))
      reference[h.id] = h.members.size();
  }
  ASSERT_GE(reference.size(), 5u);

  std::map<std::int64_t, std::size_t> found;
  std::mutex m;
  comm::run_spmd(P, [&](comm::Comm& c) {
    ParticleSet all = make_particles();
    sim::SlabDecomposition decomp(P, box);
    ParticleSet owned = decomp.redistribute(c, all.select([&] {
      std::vector<std::uint32_t> mine;
      for (std::uint32_t i = 0; i < all.size(); ++i)
        if (static_cast<int>(i) % c.size() == c.rank()) mine.push_back(i);
      return mine;
    }()));
    auto result = fof_distributed(c, decomp, owned, cfg, 3.0);
    std::lock_guard lock(m);
    for (const auto& h : result.halos) found[h.id] = h.members.size();
  });
  EXPECT_EQ(found, reference);
}

// --------------------------------------------------------- center finding --

TEST(CenterFinder, BruteMatchesManualArgmin) {
  ParticleSet p = gaussian_blob(150, 5, 5, 5, 0.4, 20);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  CenterConfig cfg;
  cfg.box = 10.0;
  auto r = mbp_center_brute(dpp::Backend::Serial, p, members, cfg);
  // Manual O(n²).
  double best = 1e300;
  std::uint32_t best_i = 0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    double phi = 0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (j == k) continue;
      const double d = std::sqrt(sim::periodic_dist2(
          p.x[k] - p.x[j], p.y[k] - p.y[j], p.z[k] - p.z[j], 10.0));
      phi -= 1.0 / (d + cfg.softening);
    }
    if (phi < best) {
      best = phi;
      best_i = static_cast<std::uint32_t>(k);
    }
  }
  EXPECT_EQ(r.particle, best_i);
  EXPECT_NEAR(r.potential, best, 1e-9 * std::abs(best));
}

TEST(CenterFinder, BackendsAgree) {
  ParticleSet p = gaussian_blob(400, 5, 5, 5, 0.3, 21);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  CenterConfig cfg;
  cfg.box = 10.0;
  auto serial = mbp_center_brute(dpp::Backend::Serial, p, members, cfg);
  auto pool = mbp_center_brute(dpp::Backend::ThreadPool, p, members, cfg);
  EXPECT_EQ(serial.particle, pool.particle);
  EXPECT_DOUBLE_EQ(serial.potential, pool.potential);
}

class AStarSweep : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, AStarSweep, ::testing::Values(1, 2, 3, 4, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(AStarSweep, AStarAgreesWithBruteAndPrunes) {
  // NFW-like clustered halo: A* should expand far fewer than n particles.
  sim::Cosmology cosmo;
  ParticleSet p;
  Rng rng(GetParam());
  const std::size_t n = 600;
  for (std::size_t i = 0; i < n; ++i) {
    // Radially concentrated blob with a 1/r-ish profile.
    const double r = 0.5 * std::pow(rng.uniform(), 2.0) + 1e-3;
    const double cz = rng.uniform(-1.0, 1.0);
    const double ph = rng.uniform(0.0, 2 * M_PI);
    const double s = std::sqrt(1 - cz * cz);
    p.push_back(static_cast<float>(5 + r * s * std::cos(ph)),
                static_cast<float>(5 + r * s * std::sin(ph)),
                static_cast<float>(5 + r * cz), 0, 0, 0,
                static_cast<std::int64_t>(i));
  }
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), 0u);
  CenterConfig cfg;
  cfg.box = 10.0;
  auto brute = mbp_center_brute(dpp::Backend::Serial, p, members, cfg);
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    auto astar = mbp_center_astar(backend, p, members, cfg);
    EXPECT_EQ(astar.member_index, brute.member_index);
    EXPECT_EQ(astar.particle, brute.particle);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(astar.potential),
              std::bit_cast<std::uint64_t>(brute.potential));
    EXPECT_LT(astar.exact_evaluations, n / 2)
        << "A* should prune most exact evaluations on a concentrated halo";
  }
}

TEST(CenterFinder, SingleParticleHalo) {
  ParticleSet p;
  p.push_back(1, 2, 3, 0, 0, 0, 7);
  std::vector<std::uint32_t> members{0};
  auto r = mbp_center_brute(dpp::Backend::Serial, p, members, {});
  EXPECT_EQ(r.particle, 0u);
  EXPECT_DOUBLE_EQ(r.potential, 0.0);
  auto a = mbp_center_astar(dpp::Backend::Serial, p, members, {});
  EXPECT_EQ(a.particle, 0u);
  EXPECT_DOUBLE_EQ(a.potential, 0.0);
  EXPECT_EQ(a.exact_evaluations, 1u);
}

TEST(CenterFinder, EmptyHaloThrows) {
  ParticleSet p;
  std::vector<std::uint32_t> members;
  EXPECT_THROW(mbp_center_brute(dpp::Backend::Serial, p, members, {}), Error);
  EXPECT_THROW(mbp_center_astar(dpp::Backend::Serial, p, members, {}), Error);
  EXPECT_THROW(mbp_center(dpp::Backend::Serial, p, members, {}), Error);
}

TEST(CenterFinder, CenterOfSyntheticHaloNearTruthCenter) {
  SyntheticConfig scfg;
  scfg.halo_count = 1;
  scfg.min_particles = 2000;
  scfg.max_particles = 2000;
  scfg.background_particles = 0;
  scfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, scfg);
    std::vector<std::uint32_t> members(u.local.size());
    std::iota(members.begin(), members.end(), 0u);
    CenterConfig cfg;
    cfg.box = scfg.box;
    auto r = mbp_center_brute(dpp::Backend::ThreadPool, u.local, members, cfg);
    const auto& t = u.truth[0];
    const double d = std::sqrt(sim::periodic_dist2(
        u.local.x[r.particle] - t.cx, u.local.y[r.particle] - t.cy,
        u.local.z[r.particle] - t.cz, scfg.box));
    // The most bound particle sits deep in the NFW core.
    EXPECT_LT(d, 0.25 * t.r_vir);
  });
}

// ----------------------------------------------------------------- SO mass --

TEST(SoMass, UniformSphereRecoversRadius) {
  // Uniform-density sphere of radius R and density rho0; with threshold
  // delta*rho_ref = rho0 the SO radius should be ~R.
  Rng rng(40);
  ParticleSet p;
  const double R = 2.0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = R * std::cbrt(rng.uniform());
    const double cz = rng.uniform(-1, 1), ph = rng.uniform(0, 2 * M_PI);
    const double s = std::sqrt(1 - cz * cz);
    p.push_back(static_cast<float>(5 + r * s * std::cos(ph)),
                static_cast<float>(5 + r * s * std::sin(ph)),
                static_cast<float>(5 + r * cz), 0, 0, 0,
                static_cast<std::int64_t>(i));
  }
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), 0u);
  const double rho0 =
      static_cast<double>(n) / (4.0 / 3.0 * M_PI * R * R * R);
  SoConfig cfg;
  cfg.delta = 0.5;  // threshold density = rho0/2 → r_Δ slightly beyond R
  cfg.mean_density = rho0;
  cfg.particle_mass = 1.0;
  auto so = so_mass(p, members, 5, 5, 5, cfg);
  EXPECT_NEAR(so.radius, R, 0.15 * R);
  EXPECT_EQ(so.count, n);  // everything enclosed before density drops
  cfg.delta = 1.0;  // threshold = rho0: r_Δ ≈ R
  so = so_mass(p, members, 5, 5, 5, cfg);
  EXPECT_NEAR(so.radius, R, 0.1 * R);
  EXPECT_GT(so.count, n * 9 / 10);
}

TEST(SoMass, EmptyMembersGiveZero) {
  ParticleSet p;
  std::vector<std::uint32_t> members;
  SoConfig cfg;
  auto so = so_mass(p, members, 0, 0, 0, cfg);
  EXPECT_EQ(so.count, 0u);
  EXPECT_EQ(so.mass, 0.0);
}

TEST(SoMass, MassScalesWithParticleMass) {
  ParticleSet p = gaussian_blob(500, 5, 5, 5, 0.2, 41);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SoConfig cfg;
  cfg.delta = 1.0;
  cfg.mean_density = 1.0;
  cfg.particle_mass = 1.0;
  auto a = so_mass(p, members, 5, 5, 5, cfg);
  cfg.particle_mass = 2.0;
  auto b = so_mass(p, members, 5, 5, 5, cfg);
  EXPECT_GE(b.mass, a.mass);  // heavier particles keep density above
  EXPECT_NEAR(b.mass / b.count, 2.0, 1e-12);
}

// ---------------------------------------------------------------- subhalos --

TEST(Subhalo, DensityPeaksAtBlobCenter) {
  ParticleSet p = gaussian_blob(400, 5, 5, 5, 0.3, 50);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  auto rho = local_densities(p, members, member_tree(p, members, cfg), cfg);
  // The densest particle should be near the blob center.
  const auto k = static_cast<std::size_t>(
      std::max_element(rho.begin(), rho.end()) - rho.begin());
  const double d = std::sqrt(sim::periodic_dist2(p.x[k] - 5, p.y[k] - 5,
                                                 p.z[k] - 5, 10.0));
  EXPECT_LT(d, 0.3);
  // Densities are positive.
  for (double r : rho) EXPECT_GT(r, 0.0);
}

TEST(Subhalo, FindsPlantedSubclump) {
  // Host blob plus one clearly separated dense subclump.
  ParticleSet p = gaussian_blob(1500, 5, 5, 5, 0.5, 51, 0);
  p.append(gaussian_blob(250, 6.2, 5.0, 5.0, 0.05, 52, 10000));
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  cfg.min_size = 50;
  cfg.velocity_scale = 0.0;  // all particles bound (positions-only test)
  auto subs = find_subhalos(p, members, cfg);
  ASSERT_GE(subs.size(), 1u);
  // The largest subhalo should be dominated by the planted clump's tags.
  std::size_t clump_members = 0;
  for (const auto i : subs[0].members)
    if (p.tag[i] >= 10000) ++clump_members;
  EXPECT_GT(clump_members, subs[0].members.size() / 2);
  EXPECT_GT(subs[0].members.size(), 100u);
}

TEST(Subhalo, NoSubhalosInSmoothBlob) {
  ParticleSet p = gaussian_blob(800, 5, 5, 5, 0.4, 53);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  cfg.min_size = 100;
  cfg.velocity_scale = 0.0;
  auto subs = find_subhalos(p, members, cfg);
  // A featureless Gaussian blob should produce at most noise-level
  // candidates, none large.
  for (const auto& s : subs) EXPECT_LT(s.members.size(), 400u);
}

TEST(Subhalo, UnbindingRemovesFastParticles) {
  // Bound core plus fast-moving interlopers with huge kinetic energy
  // (scattered in position — coincident points would be artificially bound
  // through the softening).
  ParticleSet p = gaussian_blob(300, 5, 5, 5, 0.1, 54);
  {
    Rng rng(540);
    for (std::size_t i = 0; i < 20; ++i)
      p.push_back(static_cast<float>(rng.normal(5.0, 0.1)),
                  static_cast<float>(rng.normal(5.0, 0.1)),
                  static_cast<float>(rng.normal(5.0, 0.1)), 1e4f, 0, 0,
                  static_cast<std::int64_t>(9000 + i));
  }
  Subhalo s;
  s.members.resize(p.size());
  std::iota(s.members.begin(), s.members.end(), 0u);
  SubhaloConfig cfg;
  cfg.velocity_scale = 1.0;
  unbind(p, s, cfg);
  for (const auto i : s.members) EXPECT_LT(p.tag[i], 9000);
  // The first pass strips ¼ of ALL positive-energy particles while the
  // interlopers still contaminate the bulk velocity, so some core particles
  // are lost too — the bulk of the core must survive.
  EXPECT_GE(s.members.size(), 200u);
}

TEST(Subhalo, TooSmallParentYieldsNothing) {
  ParticleSet p = gaussian_blob(10, 5, 5, 5, 0.1, 55);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  cfg.min_size = 20;
  EXPECT_TRUE(find_subhalos(p, members, cfg).empty());
}

TEST(Subhalo, SyntheticUniverseSubclumpsAreFound) {
  SyntheticConfig scfg;
  scfg.halo_count = 1;
  scfg.min_particles = 8000;
  scfg.max_particles = 8000;
  scfg.background_particles = 0;
  scfg.subclump_fraction = 0.2;
  scfg.subclump_min_host = 5000;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, scfg);
    std::vector<std::uint32_t> members(u.local.size());
    std::iota(members.begin(), members.end(), 0u);
    SubhaloConfig cfg;
    cfg.min_size = 30;
    cfg.box = scfg.box;
    cfg.velocity_scale = 0.0;
    auto subs = find_subhalos(u.local, members, cfg);
    EXPECT_GE(subs.size(), 1u) << "planted substructure not recovered";
  });
}

TEST(Subhalo, SeamDensitiesMatchBruteForce) {
  // A host centred on the corner of the box straddles the x, y and z seams.
  // Every SPH density must equal a brute-force periodic k-nearest estimate
  // bit for bit: same minimum-image differences, neighbours nearest first.
  // Random positions leave the k-th and (k+1)-th distances untied, so the
  // k nearest are one set whatever the tie rule.
  const double box = 32.0;
  Rng rng(58);
  auto wrap = [&](double v) {
    const auto f = static_cast<float>(v < 0.0 ? v + box : v);
    return f < static_cast<float>(box) ? f : 0.0f;
  };
  ParticleSet p;
  for (int i = 0; i < 2000; ++i)
    p.push_back(wrap(rng.normal(0.0, 0.5)), wrap(rng.normal(0.0, 0.5)),
                wrap(rng.normal(0.0, 0.5)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  cfg.box = box;
  const auto rho =
      local_densities(p, members, member_tree(p, members, cfg), cfg);
  ASSERT_EQ(rho.size(), p.size());

  auto fold = [&](double d) {
    if (d > 0.5 * box) d -= box;
    if (d < -0.5 * box) d += box;
    return d;
  };
  const std::size_t k = cfg.num_neighbors + 1;  // self included
  std::size_t across_seam = 0;
  for (std::uint32_t i = 0; i < p.size(); ++i) {
    std::vector<std::pair<double, std::uint32_t>> d2(p.size());
    for (std::uint32_t j = 0; j < p.size(); ++j) {
      const double dx = fold(static_cast<double>(p.x[i]) - p.x[j]);
      const double dy = fold(static_cast<double>(p.y[i]) - p.y[j]);
      const double dz = fold(static_cast<double>(p.z[i]) - p.z[j]);
      d2[j] = {dx * dx + dy * dy + dz * dz, j};
    }
    std::partial_sort(d2.begin(),
                      d2.begin() + static_cast<std::ptrdiff_t>(k + 1),
                      d2.end());
    ASSERT_LT(d2[k - 1].first, d2[k].first) << "tied k-th neighbour of " << i;
    const double h = std::sqrt(d2[k - 1].first);
    double expect = 0.0;
    for (std::size_t q = 0; q < k; ++q) {
      expect += cfg.particle_mass *
                halo::detail::sph_kernel(std::sqrt(d2[q].first), h);
      const std::uint32_t j = d2[q].second;
      if (std::abs(static_cast<double>(p.x[i]) - p.x[j]) > 0.5 * box ||
          std::abs(static_cast<double>(p.y[i]) - p.y[j]) > 0.5 * box ||
          std::abs(static_cast<double>(p.z[i]) - p.z[j]) > 0.5 * box)
        ++across_seam;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rho[i]),
              std::bit_cast<std::uint64_t>(expect))
        << "member " << i << ": " << rho[i] << " vs " << expect;
  }
  // The oracle is only a seam test if many neighbour lists cross it.
  EXPECT_GT(across_seam, p.size());
}

/// Chains every subhalo's member list and peak_density bits onto `crc`.
std::uint32_t subhalos_crc(const std::vector<Subhalo>& subs,
                           std::uint32_t crc) {
  const std::uint64_t count = subs.size();
  crc = crc32(&count, sizeof(count), crc);
  for (const auto& s : subs) {
    const std::uint64_t n = s.members.size();
    crc = crc32(&n, sizeof(n), crc);
    crc = crc32(s.members.data(), n * sizeof(s.members[0]), crc);
    const auto peak = std::bit_cast<std::uint64_t>(s.peak_density);
    crc = crc32(&peak, sizeof(peak), crc);
  }
  return crc;
}

TEST(Subhalo, CatalogMatchesGolden) {
  // Recorded from the two-tree finder: every FOF host above 5,000 members
  // of a planted-substructure universe, with unbinding off and on, then
  // FindsPlantedSubclump's host. A change means a neighbour list, a
  // density or the sweep moved.
  SyntheticConfig scfg;
  scfg.box = 32.0;
  scfg.halo_count = 4;
  scfg.min_particles = 5500;
  scfg.max_particles = 9000;
  scfg.background_particles = 0;
  scfg.subclump_fraction = 0.2;
  scfg.subclump_min_host = 5000;
  scfg.seed = 19;
  std::uint32_t crc = 0;
  std::size_t hosts = 0, subhalos = 0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    const auto u = generate_synthetic(c, cosmo, scfg);
    FofConfig fcfg;
    fcfg.linking_length = 0.35;
    for (const auto& h :
         fof_find(u.local, Periodicity::all(scfg.box), fcfg)) {
      if (h.members.size() <= 5000) continue;
      ++hosts;
      for (const double velocity_scale : {0.0, 1.0}) {
        SubhaloConfig cfg;
        cfg.box = scfg.box;
        cfg.velocity_scale = velocity_scale;
        const auto subs = find_subhalos(u.local, h.members, cfg);
        subhalos += subs.size();
        crc = subhalos_crc(subs, crc);
      }
    }
  });
  ParticleSet p = gaussian_blob(1500, 5, 5, 5, 0.5, 51, 0);
  p.append(gaussian_blob(250, 6.2, 5.0, 5.0, 0.05, 52, 10000));
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  SubhaloConfig cfg;
  cfg.min_size = 50;
  cfg.velocity_scale = 0.0;
  crc = subhalos_crc(find_subhalos(p, members, cfg), crc);
  EXPECT_EQ(hosts, 4u);
  EXPECT_EQ(subhalos, 16u);
  EXPECT_EQ(crc, 0x4d87636bu) << std::hex << "0x" << crc;
}

}  // namespace
