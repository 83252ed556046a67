// Tests for halo shapes: the reduced inertia tensor's eigenvalues and axis
// ratios.
#include <gtest/gtest.h>

#include <numeric>

#include "sim/particles.h"
#include "stats/halo_shape.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using sim::ParticleSet;

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
