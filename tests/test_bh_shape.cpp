// Tests for the Barnes-Hut octree and halo shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "halo/bh_tree.h"
#include "halo/kdtree.h"
#include "halo/subhalo.h"
#include "sim/particles.h"
#include "stats/halo_shape.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using sim::ParticleSet;

ParticleSet random_cloud(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, 10)),
                static_cast<float>(rng.uniform(0, 10)),
                static_cast<float>(rng.uniform(0, 10)), 0, 0, 0,
                static_cast<std::int64_t>(i));
  return p;
}

// ------------------------------------------------------------------ BhTree

TEST(BhTree, KNearestMatchesBruteForce) {
  ParticleSet p = random_cloud(400, 11);
  std::vector<std::uint32_t> all(p.size());
  std::iota(all.begin(), all.end(), 0u);
  halo::BhTree tree(p, all);
  Rng rng(12);
  for (int q = 0; q < 15; ++q) {
    const double qx = rng.uniform(0, 10), qy = rng.uniform(0, 10),
                 qz = rng.uniform(0, 10);
    auto knn = tree.k_nearest(qx, qy, qz, 9);
    ASSERT_EQ(knn.size(), 9u);
    std::vector<std::pair<double, std::uint32_t>> brute;
    for (std::uint32_t i = 0; i < p.size(); ++i) {
      const double dx = qx - p.x[i], dy = qy - p.y[i], dz = qz - p.z[i];
      brute.emplace_back(dx * dx + dy * dy + dz * dz, i);
    }
    std::sort(brute.begin(), brute.end());
    for (std::size_t k = 0; k < 9; ++k) ASSERT_EQ(knn[k], brute[k].second);
  }
}

TEST(BhTree, RangeQueryMatchesBruteForce) {
  ParticleSet p = random_cloud(600, 13);
  std::vector<std::uint32_t> all(p.size());
  std::iota(all.begin(), all.end(), 0u);
  halo::BhTree tree(p, all);
  Rng rng(14);
  for (int q = 0; q < 15; ++q) {
    const double qx = rng.uniform(0, 10), qy = rng.uniform(0, 10),
                 qz = rng.uniform(0, 10);
    const double r = rng.uniform(0.5, 3.0);
    std::set<std::uint32_t> found;
    tree.for_each_in_range(qx, qy, qz, r,
                           [&](std::uint32_t i) { found.insert(i); });
    std::set<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < p.size(); ++i) {
      const double dx = qx - p.x[i], dy = qy - p.y[i], dz = qz - p.z[i];
      if (dx * dx + dy * dy + dz * dz <= r * r) expect.insert(i);
    }
    EXPECT_EQ(found, expect);
    EXPECT_EQ(tree.count_in_range(qx, qy, qz, r), expect.size());
  }
}

TEST(BhTree, SubsetIsContiguousPerNode) {
  // The octree's "efficient traversal" property: each node's particles are
  // one contiguous run of index().
  ParticleSet p = random_cloud(300, 15);
  std::vector<std::uint32_t> all(p.size());
  std::iota(all.begin(), all.end(), 0u);
  halo::BhTree tree(p, all);
  ASSERT_GT(tree.node_count(), 1u);
  for (std::size_t n = 0; n < tree.node_count(); ++n) {
    const auto& nd = tree.node(n);
    ASSERT_LE(nd.begin, nd.end);
    ASSERT_LE(nd.end, tree.size());
    if (!nd.leaf()) {
      // Children partition the parent's range in order.
      std::uint32_t pos = nd.begin;
      for (int o = 0; o < 8; ++o) {
        const auto& child = tree.node(static_cast<std::size_t>(nd.first_child + o));
        EXPECT_EQ(child.begin, pos);
        pos = child.end;
      }
      EXPECT_EQ(pos, nd.end);
    }
  }
}

TEST(BhTree, CoincidentPointsDoNotRecurseForever) {
  ParticleSet p;
  for (int i = 0; i < 100; ++i) p.push_back(1, 1, 1, 0, 0, 0, i);
  std::vector<std::uint32_t> all(p.size());
  std::iota(all.begin(), all.end(), 0u);
  halo::BhTree tree(p, all);
  auto knn = tree.k_nearest(1, 1, 1, 5);
  EXPECT_EQ(knn.size(), 5u);
}

TEST(BhTree, EmptyTreeIsSafe) {
  ParticleSet p;
  halo::BhTree tree(p, {});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.k_nearest(0, 0, 0, 3).empty());
  EXPECT_EQ(tree.count_in_range(0, 0, 0, 5.0), 0u);
}

TEST(BhTree, KNearestOfZeroIsEmpty) {
  ParticleSet p = random_cloud(50, 15);
  std::vector<std::uint32_t> all(p.size());
  std::iota(all.begin(), all.end(), 0u);
  halo::BhTree tree(p, all);
  EXPECT_TRUE(tree.k_nearest(5, 5, 5, 0).empty());
  EXPECT_TRUE(tree.k_nearest(p.x[0], p.y[0], p.z[0], 0).empty());
}

TEST(BhTree, DensityEnginesAgree) {
  // The subhalo SPH densities must be identical through either engine
  // (both find the exact same k nearest neighbors).
  Rng rng(16);
  ParticleSet p;
  for (int i = 0; i < 800; ++i)
    p.push_back(static_cast<float>(rng.normal(5, 0.4)),
                static_cast<float>(rng.normal(5, 0.4)),
                static_cast<float>(rng.normal(5, 0.4)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  halo::SubhaloConfig kd_cfg, bh_cfg;
  kd_cfg.engine = halo::NeighborEngine::KdTree;
  bh_cfg.engine = halo::NeighborEngine::BhTree;
  auto rho_kd = halo::local_densities(p, members, kd_cfg);
  auto rho_bh = halo::local_densities(p, members, bh_cfg);
  ASSERT_EQ(rho_kd.size(), rho_bh.size());
  for (std::size_t i = 0; i < rho_kd.size(); ++i)
    ASSERT_NEAR(rho_kd[i], rho_bh[i], 1e-9 * rho_kd[i]) << "particle " << i;
}

// ------------------------------------------------------------------ shapes

TEST(HaloShape, EigenvaluesOfDiagonalMatrix) {
  auto ev = stats::symmetric_eigenvalues_3x3(4.0, 0, 0, 9.0, 0, 1.0);
  EXPECT_NEAR(ev[0], 9.0, 1e-12);
  EXPECT_NEAR(ev[1], 4.0, 1e-12);
  EXPECT_NEAR(ev[2], 1.0, 1e-12);
}

TEST(HaloShape, EigenvaluesOfKnownSymmetricMatrix) {
  // [[2,1,0],[1,2,0],[0,0,3]] has eigenvalues 3, 3, 1.
  auto ev = stats::symmetric_eigenvalues_3x3(2, 1, 0, 2, 0, 3);
  EXPECT_NEAR(ev[0], 3.0, 1e-10);
  EXPECT_NEAR(ev[1], 3.0, 1e-10);
  EXPECT_NEAR(ev[2], 1.0, 1e-10);
}

TEST(HaloShape, SphericalCloudIsRound) {
  Rng rng(17);
  ParticleSet p;
  for (int i = 0; i < 20000; ++i)
    p.push_back(static_cast<float>(rng.normal(5, 1.0)),
                static_cast<float>(rng.normal(5, 1.0)),
                static_cast<float>(rng.normal(5, 1.0)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  auto s = stats::halo_shape(p, members, 5, 5, 5);
  EXPECT_NEAR(s.b_over_a, 1.0, 0.05);
  EXPECT_NEAR(s.c_over_a, 1.0, 0.05);
  EXPECT_NEAR(s.a, 1.0, 0.05);  // σ = 1 per axis
}

TEST(HaloShape, StretchedCloudAxisRatiosMatch) {
  Rng rng(18);
  ParticleSet p;
  // σ = (2, 1, 0.5): b/a = 0.5, c/a = 0.25.
  for (int i = 0; i < 30000; ++i)
    p.push_back(static_cast<float>(rng.normal(5, 2.0)),
                static_cast<float>(rng.normal(5, 1.0)),
                static_cast<float>(rng.normal(5, 0.5)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  auto s = stats::halo_shape(p, members, 5, 5, 5);
  EXPECT_NEAR(s.b_over_a, 0.5, 0.04);
  EXPECT_NEAR(s.c_over_a, 0.25, 0.03);
  EXPECT_GT(s.triaxiality, 0.5);  // prolate-ish
}

TEST(HaloShape, RotationInvariantRatios) {
  // Rotate a stretched cloud 45° about z: same axis ratios.
  Rng rng(19);
  ParticleSet p;
  const double ct = std::cos(0.785398), st = std::sin(0.785398);
  for (int i = 0; i < 30000; ++i) {
    const double u = rng.normal(0, 2.0), v = rng.normal(0, 1.0),
                 w = rng.normal(0, 1.0);
    p.push_back(static_cast<float>(5 + ct * u - st * v),
                static_cast<float>(5 + st * u + ct * v),
                static_cast<float>(5 + w), 0, 0, 0, i);
  }
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  auto s = stats::halo_shape(p, members, 5, 5, 5);
  EXPECT_NEAR(s.b_over_a, 0.5, 0.04);
  EXPECT_NEAR(s.c_over_a, 0.5, 0.04);
}

TEST(HaloShape, RejectsTinyHalos) {
  ParticleSet p;
  for (int i = 0; i < 3; ++i) p.push_back(1, 2, 3, 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  EXPECT_THROW(stats::halo_shape(p, members, 1, 2, 3), Error);
}

TEST(HaloShape, PeriodicWrapHandled) {
  // Blob straddling the box corner: shape about the wrapped center must be
  // compact, not box-sized.
  Rng rng(20);
  ParticleSet p;
  for (int i = 0; i < 5000; ++i)
    p.push_back(static_cast<float>(rng.normal(0, 0.2)),
                static_cast<float>(rng.normal(0, 0.2)),
                static_cast<float>(rng.normal(0, 0.2)), 0, 0, 0, i);
  p.wrap_positions(10.0f);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  auto s = stats::halo_shape(p, members, 0, 0, 0, 10.0);
  EXPECT_LT(s.a, 0.5);
  EXPECT_NEAR(s.b_over_a, 1.0, 0.1);
}

}  // namespace
