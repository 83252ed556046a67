// Tests for the simulation substrate: cosmology, decomposition, PM solver,
// initial conditions, synthetic universe, and the driver loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "util/crc32.h"
#include "sim/decomposition.h"
#include "sim/ic.h"
#include "sim/particles.h"
#include "sim/pm_solver.h"
#include "sim/simulation.h"
#include "sim/synthetic.h"
#include "pool_load.h"

namespace {

using namespace cosmo;
using namespace cosmo::sim;

TEST(Cosmology, GrowthNormalizedToday) {
  Cosmology c;
  EXPECT_NEAR(c.growth(1.0), 1.0, 1e-12);
}

TEST(Cosmology, GrowthIsMonotonicAndSuppressed) {
  Cosmology c;
  double prev = 0.0;
  for (double a = 0.05; a <= 1.0; a += 0.05) {
    const double d = c.growth(a);
    EXPECT_GT(d, prev);
    prev = d;
  }
  // ΛCDM growth at high z approaches D ∝ a (EdS); at late times Λ
  // suppresses it, so D(a)/a must exceed 1 at early times (normalized today).
  EXPECT_GT(c.growth(0.05) / 0.05 * 1.0, 1.0);
}

TEST(Cosmology, EfuncLimits) {
  Cosmology c;
  EXPECT_NEAR(c.efunc(1.0), 1.0, 1e-12);
  // Early times are matter dominated: E ≈ sqrt(Ω_m) a^-1.5.
  const double a = 0.01;
  EXPECT_NEAR(c.efunc(a), std::sqrt(c.params().omega_m) * std::pow(a, -1.5),
              0.01 * c.efunc(a));
}

TEST(Cosmology, Sigma8MatchesNormalization) {
  CosmologyParams p;
  p.sigma8 = 0.8;
  Cosmology c(p);
  EXPECT_NEAR(c.sigma_r(8.0), 0.8, 1e-6);
}

TEST(Cosmology, PowerSpectrumShape) {
  Cosmology c;
  // P(k) rises as ~k^ns at large scales and falls at small scales.
  EXPECT_GT(c.linear_power(0.02), c.linear_power(0.002));
  EXPECT_GT(c.linear_power(0.05), c.linear_power(5.0));
  EXPECT_EQ(c.linear_power(0.0), 0.0);
}

TEST(Cosmology, HighRedshiftPowerIsSuppressed) {
  Cosmology c;
  EXPECT_LT(c.linear_power(0.1, 5.0), c.linear_power(0.1, 0.0));
}

TEST(Cosmology, ParticleMassScalesWithVolume) {
  Cosmology c;
  const double m1 = c.particle_mass(100.0, 128);
  const double m2 = c.particle_mass(200.0, 128);
  EXPECT_NEAR(m2 / m1, 8.0, 1e-9);
  // 1024^3 in ~360 Mpc/h boxes gives ~1e8 Msun/h-scale particles, the
  // Q Continuum-like mass resolution the paper quotes.
  const double m = c.particle_mass(360.0, 1024);
  EXPECT_GT(m, 1e6);
  EXPECT_LT(m, 1e10);
}

TEST(ParticleSet, SizeAndBytesTrackHaccLayout) {
  ParticleSet p(10);
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(p.bytes(), 360u);  // 36 bytes per particle (Table 1)
}

TEST(ParticleSet, SelectPreservesFields) {
  ParticleSet p;
  for (int i = 0; i < 5; ++i)
    p.push_back(static_cast<float>(i), 0, 0, 0, 0, 0, 100 + i);
  std::vector<std::uint32_t> idx{4, 0, 2};
  ParticleSet s = p.select(idx);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.tag[0], 104);
  EXPECT_EQ(s.tag[1], 100);
  EXPECT_EQ(s.tag[2], 102);
  EXPECT_FLOAT_EQ(s.x[0], 4.0f);
}

TEST(ParticleSet, WrapPositionsIsPeriodic) {
  ParticleSet p;
  p.push_back(-1.0f, 65.0f, 64.0f, 0, 0, 0, 0);
  p.wrap_positions(64.0f);
  EXPECT_FLOAT_EQ(p.x[0], 63.0f);
  EXPECT_FLOAT_EQ(p.y[0], 1.0f);
  EXPECT_FLOAT_EQ(p.z[0], 0.0f);
}

TEST(ParticleSet, WrapPositionsHandlesExtremeMagnitudes) {
  ParticleSet p;
  // fmod-based wrap is O(1) even for values the old while-loop would have
  // iterated ~1e8 times over (and it must still land in [0, box)).
  p.push_back(1.0e9f, -1.0e9f, -1.0e-7f, 0, 0, 0, 0);
  p.wrap_positions(64.0f);
  for (const float v : {p.x[0], p.y[0], p.z[0]}) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 64.0f);
  }
}

TEST(ParticleSet, WrapPositionsRejectsNonFinite) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // −inf looped forever in the old wrap (−inf + box == −inf); NaN passed
  // both comparisons untouched and corrupted slab routing much later.
  for (const float bad : {nan, inf, -inf}) {
    ParticleSet p;
    p.push_back(bad, 1.0f, 1.0f, 0, 0, 0, 0);
    EXPECT_THROW(p.wrap_positions(64.0f), Error) << "x = " << bad;
    ParticleSet q;
    q.push_back(1.0f, 1.0f, bad, 0, 0, 0, 0);
    EXPECT_THROW(q.wrap_positions(64.0f), Error) << "z = " << bad;
  }
}

TEST(PeriodicDist, MinimumImage) {
  EXPECT_NEAR(periodic_dist2(63.0, 0.0, 0.0, 64.0), 1.0, 1e-12);
  EXPECT_NEAR(periodic_dist2(-63.0, 0.0, 0.0, 64.0), 1.0, 1e-12);
  EXPECT_NEAR(periodic_dist2(3.0, 4.0, 0.0, 64.0), 25.0, 1e-12);
}

class DecompRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, DecompRanks, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(DecompRanks, RedistributeRoutesEveryParticleToItsOwner) {
  const int P = GetParam();
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    SlabDecomposition d(P, box);
    // Every rank creates particles spread over the whole box.
    ParticleSet mine;
    Rng rng(77 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 500; ++i)
      mine.push_back(static_cast<float>(rng.uniform(0, box)),
                     static_cast<float>(rng.uniform(0, box)),
                     static_cast<float>(rng.uniform(0, box)), 0, 0, 0,
                     c.rank() * 1000 + i);
    ParticleSet owned = d.redistribute(c, mine);
    for (std::size_t i = 0; i < owned.size(); ++i)
      EXPECT_EQ(d.owner_of(owned.z[i]), c.rank());
    // Conservation: total particle count unchanged.
    const auto total = c.allreduce_value<std::uint64_t>(owned.size(),
                                                        comm::ReduceOp::Sum);
    EXPECT_EQ(total, static_cast<std::uint64_t>(P) * 500u);
  });
}

// redistribute as it stood before it routed each particle once, kept as the
// reference: wrap every coordinate with fmod, find owners by stepping z
// into the box, pack every particle (home ones included) by owner, and
// unpack in source-rank order.
ParticleSet redistribute_pack_all(comm::Comm& c, const SlabDecomposition& d,
                                  ParticleSet local) {
  const auto box = static_cast<float>(d.box());
  auto wrap = [box](float& v) {
    v = std::fmod(v, box);
    if (v < 0.0f) v += box;
    if (v >= box) v -= box;
  };
  for (std::size_t i = 0; i < local.size(); ++i) {
    wrap(local.x[i]);
    wrap(local.y[i]);
    wrap(local.z[i]);
  }
  auto owner = [&](double zz) {
    while (zz < 0.0) zz += d.box();
    while (zz >= d.box()) zz -= d.box();
    int r = static_cast<int>(zz / d.slab_thickness());
    if (r >= d.nranks()) r = d.nranks() - 1;
    return r;
  };
  std::vector<std::vector<PackedParticle>> send(
      static_cast<std::size_t>(d.nranks()));
  for (std::size_t i = 0; i < local.size(); ++i)
    send[static_cast<std::size_t>(owner(local.z[i]))].push_back(
        pack_particle(local, i));
  auto recv = c.alltoallv(send);
  ParticleSet owned;
  for (const auto& buf : recv)
    for (const auto& w : buf) unpack_particle(w, owned);
  return owned;
}

bool same_particles(const ParticleSet& a, const ParticleSet& b) {
  auto same = [](const auto& u, const auto& v) {
    return u.size() == v.size() &&
           std::memcmp(u.data(), v.data(), u.size() * sizeof(u[0])) == 0;
  };
  return same(a.x, b.x) && same(a.y, b.y) && same(a.z, b.z) &&
         same(a.vx, b.vx) && same(a.vy, b.vy) && same(a.vz, b.vz) &&
         same(a.phi, b.phi) && same(a.tag, b.tag);
}

// redistribute's output order is part of the PM path's bits (the deposit
// sums particles in that order): source ranks ascending, each source's
// particles in its local order. Particles sit on and just below every slab
// face, on the box faces, at −0, at z that rounds to the box in float, and
// far outside the box.
TEST_P(DecompRanks, RedistributeKeepsTheOrder) {
  const int P = GetParam();
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    SlabDecomposition d(P, box);
    ParticleSet mine;
    Rng rng(91 + static_cast<std::uint64_t>(c.rank()));
    std::int64_t tag = c.rank() * 100000;
    auto add = [&](float x, float y, float z) {
      const auto v = static_cast<float>(rng.normal());
      const std::int64_t t = tag++;
      mine.push_back(x, y, z, v, -v, 2 * v, t, static_cast<float>(t));
    };
    for (int r = 0; r <= P; ++r) {
      const auto face = static_cast<float>(d.z_lo(r));
      add(face, face, face);
      add(std::nextafter(face, 0.0f), 1.0f, std::nextafter(face, 0.0f));
      add(1.0f, std::nextafter(face, 100.0f), std::nextafter(face, 100.0f));
    }
    for (const float z : {-0.0f, -1.0e-7f, static_cast<float>(63.99999999),
                          64.0f, -64.0f, 128.0f, -1.0e6f, 3.0e7f})
      add(z, 2.0f, z);
    for (int i = 0; i < 600; ++i)
      add(static_cast<float>(rng.uniform(-box, 2 * box)),
          static_cast<float>(rng.uniform(0, box)),
          static_cast<float>(rng.uniform(-box, 2 * box)));
    const ParticleSet want = redistribute_pack_all(c, d, mine);
    const ParticleSet got = d.redistribute(c, mine);
    EXPECT_TRUE(same_particles(got, want)) << "rank " << c.rank();
  });
}

TEST_P(DecompRanks, OverloadGhostsComeFromAdjacentBoundary) {
  const int P = GetParam();
  const double box = 64.0;
  const double width = 2.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    SlabDecomposition d(P, box);
    // One particle per rank right above its lower slab face.
    ParticleSet mine;
    mine.push_back(1.0f, 1.0f, static_cast<float>(d.z_lo(c.rank()) + 0.5), 0,
                   0, 0, c.rank());
    auto ov = d.exchange_overload(c, mine, width);
    EXPECT_EQ(ov.owned_count, 1u);
    if (P == 1) {
      // Self-ghost across the periodic seam.
      ASSERT_EQ(ov.particles.size(), 2u);
      EXPECT_GT(ov.particles.z[1], box - width);
    } else {
      // The lower neighbor's boundary particle must appear as our ghost
      // because it sits within `width` of OUR upper face? No — it sits near
      // its own lower face, so WE receive it only if we are its lower
      // neighbor. Every rank receives exactly one ghost: the upper
      // neighbor's boundary particle.
      ASSERT_EQ(ov.particles.size(), 2u);
      const int upper = (c.rank() + 1) % P;
      EXPECT_EQ(ov.particles.tag[1], upper);
      // Ghost z is contiguous with our slab (unwrapped across the seam).
      EXPECT_GT(ov.particles.z[1], d.z_hi(c.rank()) - 0.01);
      EXPECT_LT(ov.particles.z[1], d.z_hi(c.rank()) + width);
    }
  });
}

// exchange_overload as it stood before it appended each ghost straight from
// the message, kept as the reference: ghosts copied out through alltoallv
// and appended in source order, and at P == 1 the seam ghosts from a loop
// of their own.
SlabDecomposition::Overloaded overload_through_alltoallv(
    comm::Comm& comm, const SlabDecomposition& d, const ParticleSet& owned,
    double width) {
  const int nranks = d.nranks();
  const double box = d.box();
  SlabDecomposition::Overloaded out;
  out.particles = owned;
  out.owned_count = owned.size();
  if (nranks == 1) {
    if (width > 0.0) {
      ParticleSet& p = out.particles;
      const std::size_t n = p.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (p.z[i] < width) {
          PackedParticle w = pack_particle(p, i);
          w.z += static_cast<float>(box);
          unpack_particle(w, p);
        } else if (p.z[i] >= box - width) {
          PackedParticle w = pack_particle(p, i);
          w.z -= static_cast<float>(box);
          unpack_particle(w, p);
        }
      }
    }
    return out;
  }

  const int rank = comm.rank();
  const int lo_nbr = (rank + nranks - 1) % nranks;
  const int hi_nbr = (rank + 1) % nranks;
  const double zlo = d.z_lo(rank), zhi = d.z_hi(rank);

  std::vector<std::vector<PackedParticle>> send(
      static_cast<std::size_t>(nranks));
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const double zz = owned.z[i];
    if (zz < zlo + width) {
      PackedParticle w = pack_particle(owned, i);
      if (rank == 0) w.z += static_cast<float>(box);
      send[static_cast<std::size_t>(lo_nbr)].push_back(w);
    }
    if (zz >= zhi - width) {
      PackedParticle w = pack_particle(owned, i);
      if (rank == nranks - 1) w.z -= static_cast<float>(box);
      send[static_cast<std::size_t>(hi_nbr)].push_back(w);
    }
  }
  auto recv = comm.alltoallv(send);
  for (const auto& buf : recv)
    for (const auto& w : buf) unpack_particle(w, out.particles);
  return out;
}

// The overload's ghosts and their order are FOF's input. Each rank owns
// particles on and beside its slab faces (the box faces among them) and
// both edges of each band, plus random ones; the bands are 2 wide and just
// under half a slab wide.
TEST_P(DecompRanks, OverloadKeepsTheOrder) {
  const int P = GetParam();
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    SlabDecomposition d(P, box);
    const double lo = d.z_lo(c.rank()), hi = d.z_hi(c.rank());
    for (const double width :
         {2.0, std::nextafter(d.slab_thickness() / 2, 0.0)}) {
      ParticleSet mine;
      Rng rng(53 + static_cast<std::uint64_t>(c.rank()));
      std::int64_t tag = c.rank() * 100000;
      auto add = [&](float z) {
        if (!(z >= lo && z < hi)) return;  // owned particles only
        const auto x = static_cast<float>(rng.uniform(0, box));
        const auto y = static_cast<float>(rng.uniform(0, box));
        const auto v = static_cast<float>(rng.normal());
        const std::int64_t t = tag++;
        mine.push_back(x, y, z, v, -v, 2 * v, t, static_cast<float>(t));
      };
      for (const double edge : {lo, hi, lo + width, hi - width}) {
        const auto f = static_cast<float>(edge);
        add(f);
        add(std::nextafter(f, -1.0f));
        add(std::nextafter(f, 2.0f * static_cast<float>(box)));
      }
      for (int i = 0; i < 400; ++i)
        add(static_cast<float>(rng.uniform(lo, hi)));
      const auto want = overload_through_alltoallv(c, d, mine, width);
      const auto got = d.exchange_overload(c, mine, width);
      EXPECT_EQ(got.owned_count, want.owned_count);
      EXPECT_GT(got.particles.size(), got.owned_count);
      EXPECT_TRUE(same_particles(got.particles, want.particles))
          << "rank " << c.rank() << ", width " << width;
    }
  });
}

TEST(Decomp, OverloadWidthMustFitSlab) {
  comm::run_spmd(4, [&](comm::Comm& c) {
    SlabDecomposition d(4, 64.0);
    ParticleSet p;
    EXPECT_THROW(d.exchange_overload(c, p, 20.0), Error);
  });
}

TEST(Decomp, OwnerOfWrapsPeriodically) {
  SlabDecomposition d(4, 64.0);
  EXPECT_EQ(d.owner_of(0.0), 0);
  EXPECT_EQ(d.owner_of(15.9), 0);
  EXPECT_EQ(d.owner_of(16.0), 1);
  EXPECT_EQ(d.owner_of(63.9), 3);
  EXPECT_EQ(d.owner_of(64.0), 0);
  EXPECT_EQ(d.owner_of(-0.5), 3);
}

// NaN has no owner (its cast to int is undefined) and ±inf never folds
// into the box.
TEST(Decomp, OwnerOfRejectsNonFinite) {
  SlabDecomposition d(4, 64.0);
  EXPECT_THROW(d.owner_of(std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(d.owner_of(std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(d.owner_of(-std::numeric_limits<double>::infinity()), Error);
}

// One fmod folds any finite z: stepping by the box took minutes for ±1e15
// and never returned for 1e20.
TEST(Decomp, OwnerOfFoldsHugeZPromptly) {
  SlabDecomposition d(4, 64.0);
  EXPECT_EQ(d.owner_of(1.0e15), 0);  // 1e15 = 64 · 15625000000000
  EXPECT_EQ(d.owner_of(-1.0e15), 0);
  EXPECT_EQ(d.owner_of(1.0e15 + 40.0), 2);
  EXPECT_EQ(d.owner_of(-1.0e15 - 8.0), 3);
  EXPECT_EQ(d.owner_of(1.0e20), 0);  // 1e20 = 2^20 · 5^20 exactly
}

class PmRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, PmRanks, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(PmRanks, UniformParticlesGiveZeroOverdensity) {
  const int P = GetParam();
  const std::size_t ng = 8;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, 64.0);
    // One particle per cell center in this rank's slab.
    ParticleSet p;
    const double cell = pm.cell();
    for (std::size_t zl = 0; zl < pm.nzl(); ++zl)
      for (std::size_t y = 0; y < ng; ++y)
        for (std::size_t x = 0; x < ng; ++x)
          p.push_back(static_cast<float>((x + 0.5) * cell),
                      static_cast<float>((y + 0.5) * cell),
                      static_cast<float>((pm.z0() + zl + 0.5) * cell), 0, 0, 0,
                      0);
    auto delta = pm.deposit_density(p, 1.0);
    for (long zl = 0; zl < static_cast<long>(pm.nzl()); ++zl)
      for (std::size_t y = 0; y < ng; ++y)
        for (std::size_t x = 0; x < ng; ++x)
          ASSERT_NEAR(delta.at(x, y, zl), 0.0, 1e-9);
  });
}

TEST_P(PmRanks, DepositConservesMass) {
  const int P = GetParam();
  const std::size_t ng = 8;
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, box);
    SlabDecomposition d(P, box);
    ParticleSet scattered;
    Rng rng(5 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 200; ++i)
      scattered.push_back(static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)), 0, 0, 0, i);
    ParticleSet owned = d.redistribute(c, scattered);
    const double mean = 200.0 * P / (ng * ng * ng);
    auto delta = pm.deposit_density(owned, mean);
    double local_sum = 0.0;
    for (long zl = 0; zl < static_cast<long>(pm.nzl()); ++zl)
      for (std::size_t y = 0; y < ng; ++y)
        for (std::size_t x = 0; x < ng; ++x)
          local_sum += (delta.at(x, y, zl) + 1.0) * mean;
    const double total = c.allreduce_value(local_sum, comm::ReduceOp::Sum);
    EXPECT_NEAR(total, 200.0 * P, 1e-6);
  });
}

// The parallel-deposit determinism contract: for every rank count the
// ThreadPool δ field is bit-identical to Serial — the scatter-reduce block
// structure depends only on (n, grid size, grain), never on the pool width
// or on thread scheduling. DppDeposit.BackendsBitIdenticalAcrossGrains sweeps the grain.
TEST_P(PmRanks, DepositBackendsBitIdentical) {
  const int P = GetParam();
  const std::size_t ng = 16;
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    SlabDecomposition d(P, box);
    ParticleSet scattered;
    Rng rng(41 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 4000; ++i)
      scattered.push_back(static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)), 0, 0, 0, i);
    ParticleSet owned = d.redistribute(c, scattered);
    const double mean = 4000.0 * P / (ng * ng * ng);
    PmSolver serial_pm(c, cosmo, ng, box);
    serial_pm.set_backend(dpp::Backend::Serial);
    PmSolver pooled_pm(c, cosmo, ng, box);
    pooled_pm.set_backend(dpp::Backend::ThreadPool);
    SlabField ds = serial_pm.deposit_density(owned, mean);
    SlabField dp = pooled_pm.deposit_density(owned, mean);
    auto a = ds.data();
    auto b = dp.data();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "rank " << c.rank();
  });
}

// CRC32 of the δ field, ghost planes included, that one deposit of 4·64³
// uniform particles gives on a 64³ grid at P = 1.
std::uint32_t uniform_deposit_crc(dpp::Backend backend) {
  constexpr double kBox = 64.0;
  std::uint32_t crc = 0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, 64, kBox);
    pm.set_backend(backend);
    ParticleSet p;
    Rng rng(20151115);
    // One call draws x, y and z in the order the compiler evaluates the
    // arguments; the golden was recorded with GCC's order.
    for (std::size_t i = 0; i < 4 * 64 * 64 * 64; ++i)
      p.push_back(static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)), 0, 0, 0, 0);
    const auto delta = pm.deposit_density(p, 4.0);
    const auto d = delta.data();
    crc = crc32(d.data(), d.size() * sizeof(double));
  });
  return crc;
}

// The deposit's bits, pinned on Serial, on an idle pool and on a pool that
// another thread keeps dispatching on. deposit_reduce merges
// min(16, 1 + 8n/m) blocks, a count set by (n, m, grain) alone, so the
// golden holds on every pool width.
TEST(PmSolver, DepositMatchesGolden) {
  const std::uint32_t serial = uniform_deposit_crc(dpp::Backend::Serial);
  EXPECT_EQ(uniform_deposit_crc(dpp::Backend::ThreadPool), serial);
  EXPECT_EQ(testutil::with_pool_load([] {
              return uniform_deposit_crc(dpp::Backend::ThreadPool);
            }),
            serial);
  EXPECT_EQ(serial, 0x2D6FA698u) << std::hex << "δ drifted: 0x" << serial;
}

// fx, fy and fz share one ghost exchange: one alltoallv per accelerations
// call on each rank (P == 1 copies its planes locally and sends nothing).
TEST_P(PmRanks, AccelerationsSendOneGhostExchange) {
  const int P = GetParam();
  const std::size_t ng = 8;
  const double box = 64.0;
  auto& exchanges = obs::MetricsRegistry::instance().counter("comm.alltoallv");
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, box);
    ParticleSet p;
    p.push_back(4.0f, 4.0f, static_cast<float>((pm.z0() + 0.5) * pm.cell()),
                0, 0, 0, c.rank());
    SlabField phi(ng, pm.nzl());
    std::vector<double> ax, ay, az;
    const std::uint64_t before = exchanges.local(c.rank());
    pm.accelerations(phi, p, ax, ay, az);
    EXPECT_EQ(exchanges.local(c.rank()) - before, P == 1 ? 0u : 1u)
        << "rank " << c.rank();
  });
}

// P == 2 is the ordering-sensitive fold path: both ghost planes go to the
// SAME neighbor and must concatenate as [lower spill, upper spill]. Each
// rank drops one particle whose CIC cloud straddles its upper slab face at
// an exactly-representable grid position, so the spilled half-weight must
// land on the *other* rank's bottom plane at that rank's distinct (x, y).
TEST(PmSolver, FoldGhostPlanesP2RoutesSpillToCorrectNeighbor) {
  const std::size_t ng = 8;
  const double box = 64.0;  // cell = 8.0, exactly representable
  comm::run_spmd(2, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, box);
    ASSERT_EQ(pm.nzl(), 4u);
    // rank 0: (x, y) node (2, 2); rank 1: node (3, 3). z at slab-local
    // plane 3.5 → half the weight deposits onto ghost plane 4 = the other
    // rank's plane 0 (rank 1's ghost wraps the periodic seam to rank 0).
    ParticleSet p;
    const float xy = c.rank() == 0 ? 16.0f : 24.0f;
    const float z = c.rank() == 0 ? 28.0f : 60.0f;
    p.push_back(xy, xy, z, 0, 0, 0, 0);
    SlabField delta = pm.deposit_density(p, /*mean_per_cell=*/1.0);
    const std::size_t own = c.rank() == 0 ? 2 : 3;
    const std::size_t other = c.rank() == 0 ? 3 : 2;
    // Own half-weight stays on our top owned plane.
    EXPECT_DOUBLE_EQ(delta.at(own, own, 3), 0.5 - 1.0);
    // The neighbor's spill lands on our bottom plane at ITS (x, y) — if the
    // P == 2 concatenation order regressed, it would land on plane 3 (or at
    // our own (x, y)) instead.
    EXPECT_DOUBLE_EQ(delta.at(other, other, 0), 0.5 - 1.0);
    EXPECT_DOUBLE_EQ(delta.at(own, own, 0), -1.0);
    EXPECT_DOUBLE_EQ(delta.at(other, other, 3), -1.0);
    // Everything else is empty (δ = −1).
    double sum = 0.0;
    for (long zl = 0; zl < 4; ++zl)
      for (std::size_t y = 0; y < ng; ++y)
        for (std::size_t x = 0; x < ng; ++x) sum += delta.at(x, y, zl) + 1.0;
    EXPECT_NEAR(sum, 1.0, 1e-12);  // one particle's worth per rank
  });
}

// P == 2 ghost *exchange* (the same same-neighbor concatenation shape, for
// φ): after solve_potential, each rank's ghost planes must be exact copies
// of the neighbor's boundary planes.
TEST(PmSolver, ExchangeGhostPlanesP2MatchesNeighborBoundary) {
  const std::size_t ng = 8;
  const double box = 64.0;
  comm::run_spmd(2, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, box);
    SlabDecomposition d(2, box);
    ParticleSet scattered;
    Rng rng(53 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 300; ++i)
      scattered.push_back(static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)),
                          static_cast<float>(rng.uniform(0, box)), 0, 0, 0, i);
    ParticleSet owned = d.redistribute(c, scattered);
    const double mean = 600.0 / (ng * ng * ng);
    SlabField delta = pm.deposit_density(owned, mean);
    SlabField phi = pm.solve_potential(delta, 1.0);
    const long top = static_cast<long>(pm.nzl()) - 1;
    // Swap boundary planes with the (single) neighbor and cross-check.
    const int nbr = 1 - c.rank();
    auto bot_plane = phi.plane(0);
    auto top_plane = phi.plane(top);
    c.send<double>(nbr, 11,
                   std::span<const double>(bot_plane.data(), bot_plane.size()));
    c.send<double>(nbr, 12,
                   std::span<const double>(top_plane.data(), top_plane.size()));
    const auto nbr_bot = c.recv<double>(nbr, 11);
    const auto nbr_top = c.recv<double>(nbr, 12);
    auto glo = phi.plane(-1);
    auto ghi = phi.plane(static_cast<long>(pm.nzl()));
    ASSERT_EQ(nbr_top.size(), glo.size());
    for (std::size_t i = 0; i < glo.size(); ++i) {
      // Lower ghost = neighbor's top plane; upper ghost = neighbor's bottom.
      ASSERT_EQ(glo[i], nbr_top[i]) << "lower ghost cell " << i;
      ASSERT_EQ(ghi[i], nbr_bot[i]) << "upper ghost cell " << i;
    }
  });
}

// A particle outside [-1, nzl] after a large drift must fail fast in the
// CIC interpolation (it used to silently read out-of-bounds heap; the
// deposit already threw).
TEST(PmSolver, AccelerationsRejectParticleBeyondGhostPlanes) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    const std::size_t ng = 8;
    PmSolver pm(c, cosmo, ng, 64.0);
    SlabField phi(ng, pm.nzl());  // zero field; bounds are what matters
    ParticleSet p;
    p.push_back(1.0f, 1.0f, 200.0f, 0, 0, 0, 0);  // z ≫ box: gz = 25 > nzl
    std::vector<double> ax, ay, az;
    EXPECT_THROW(pm.accelerations(phi, p, ax, ay, az), Error);
    // And below the lower ghost as well.
    ParticleSet q;
    q.push_back(1.0f, 1.0f, -100.0f, 0, 0, 0, 0);
    EXPECT_THROW(pm.accelerations(phi, q, ax, ay, az), Error);
  });
}

TEST_P(PmRanks, PointMassForceIsAttractiveAndSymmetric) {
  const int P = GetParam();
  const std::size_t ng = 16;
  const double box = 64.0;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    PmSolver pm(c, cosmo, ng, box);
    SlabDecomposition d(P, box);
    // A heavy clump at the box center; probes on either side along x.
    ParticleSet all;
    if (c.rank() == 0) {
      for (int i = 0; i < 100; ++i)
        all.push_back(32.0f, 32.0f, 32.0f, 0, 0, 0, i);
      all.push_back(24.0f, 32.0f, 32.0f, 0, 0, 0, 1000);  // probe left
      all.push_back(40.0f, 32.0f, 32.0f, 0, 0, 0, 1001);  // probe right
    }
    ParticleSet owned = d.redistribute(c, all);
    const double mean = 102.0 / (ng * ng * ng);
    auto delta = pm.deposit_density(owned, mean);
    auto phi = pm.solve_potential(delta, 1.0);
    std::vector<double> ax, ay, az;
    pm.accelerations(phi, owned, ax, ay, az);
    double ax_left = 0.0, ax_right = 0.0;
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (owned.tag[i] == 1000) ax_left = ax[i];
      if (owned.tag[i] == 1001) ax_right = ax[i];
    }
    const double sum_left = c.allreduce_value(ax_left, comm::ReduceOp::Sum);
    const double sum_right = c.allreduce_value(ax_right, comm::ReduceOp::Sum);
    EXPECT_GT(sum_left, 1e-6);    // pulled toward +x (the clump)
    EXPECT_LT(sum_right, -1e-6);  // pulled toward −x
    EXPECT_NEAR(sum_left, -sum_right, 0.05 * std::abs(sum_left));
  });
}

TEST_P(PmRanks, ZeldovichIcsAreRankCountInvariant) {
  const int P = GetParam();
  IcConfig cfg;
  cfg.ng = 8;
  cfg.box = 32.0;
  cfg.seed = 99;
  // Reference: single rank.
  std::vector<std::tuple<std::int64_t, float, float, float>> reference;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    ParticleSet p = zeldovich_ics(c, cosmo, cfg);
    for (std::size_t i = 0; i < p.size(); ++i)
      reference.emplace_back(p.tag[i], p.x[i], p.y[i], p.z[i]);
  });
  std::sort(reference.begin(), reference.end());

  std::vector<std::tuple<std::int64_t, float, float, float>> gathered;
  std::mutex m;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    ParticleSet p = zeldovich_ics(c, cosmo, cfg);
    std::lock_guard lock(m);
    for (std::size_t i = 0; i < p.size(); ++i)
      gathered.emplace_back(p.tag[i], p.x[i], p.y[i], p.z[i]);
  });
  std::sort(gathered.begin(), gathered.end());
  ASSERT_EQ(gathered.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(gathered[i], reference[i]) << "particle " << i;
}

TEST(ZeldovichIcs, DisplacementsAreSmallAtHighRedshift) {
  IcConfig cfg;
  cfg.ng = 16;
  cfg.box = 64.0;
  cfg.z_init = 50.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    ParticleSet p = zeldovich_ics(c, cosmo, cfg);
    ASSERT_EQ(p.size(), 16u * 16u * 16u);
    // At z=50 the growth factor suppresses displacements well below a cell.
    const double cell = cfg.box / 16.0;
    std::size_t displaced_far = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const auto t = p.tag[i];
      const double qx = ((t % 16) + 0.5) * cell;
      const double dx2 = periodic_dist2(p.x[i] - qx, 0, 0, cfg.box);
      if (dx2 > cell * cell) ++displaced_far;
    }
    EXPECT_LT(displaced_far, p.size() / 100);
  });
}

TEST(Simulation, RunsAndGrowsStructure) {
  // Gravitational collapse must amplify density fluctuations: the final
  // overdensity variance should exceed the initial one.
  comm::run_spmd(2, [&](comm::Comm& c) {
    Cosmology cosmo;
    SimulationConfig cfg;
    cfg.ic.ng = 16;
    cfg.ic.box = 32.0;
    cfg.ic.z_init = 20.0;
    cfg.z_final = 0.0;
    cfg.steps = 12;
    Simulation simulation(c, cosmo, cfg);

    PmSolver pm(c, cosmo, cfg.ic.ng, cfg.ic.box);
    const double mean = simulation.global_particles() /
                        static_cast<double>(cfg.ic.ng * cfg.ic.ng * cfg.ic.ng);

    ParticleSet init = zeldovich_ics(c, cosmo, cfg.ic);
    auto delta0 = pm.deposit_density(init, mean);
    double var0 = 0.0;
    for (long zl = 0; zl < static_cast<long>(pm.nzl()); ++zl)
      for (std::size_t y = 0; y < cfg.ic.ng; ++y)
        for (std::size_t x = 0; x < cfg.ic.ng; ++x)
          var0 += delta0.at(x, y, zl) * delta0.at(x, y, zl);
    var0 = c.allreduce_value(var0, comm::ReduceOp::Sum);

    std::size_t hook_calls = 0;
    ParticleSet final_p = simulation.run(
        [&](const StepContext& ctx, ParticleSet&) {
          ++hook_calls;
          EXPECT_LE(ctx.step, ctx.total_steps);
          EXPECT_GT(ctx.a, 0.0);
        });
    EXPECT_EQ(hook_calls, cfg.steps);

    const auto total = c.allreduce_value<std::uint64_t>(final_p.size(),
                                                        comm::ReduceOp::Sum);
    EXPECT_EQ(total, 16u * 16u * 16u);  // particle conservation

    auto delta1 = pm.deposit_density(final_p, mean);
    double var1 = 0.0;
    for (long zl = 0; zl < static_cast<long>(pm.nzl()); ++zl)
      for (std::size_t y = 0; y < cfg.ic.ng; ++y)
        for (std::size_t x = 0; x < cfg.ic.ng; ++x)
          var1 += delta1.at(x, y, zl) * delta1.at(x, y, zl);
    var1 = c.allreduce_value(var1, comm::ReduceOp::Sum);
    EXPECT_GT(var1, 2.0 * var0) << "no gravitational growth observed";
  });
}

// CRC32 of a small PM run's final particles: every rank's x, y, z, vx, vy,
// vz and tag, chained in rank order. The rank count changes the deposit's
// summation order, so each rank count has its own golden.
std::uint32_t final_particles_crc(int ranks) {
  std::vector<ParticleSet> finals(static_cast<std::size_t>(ranks));
  comm::run_spmd(ranks, [&](comm::Comm& c) {
    Cosmology cosmo;
    SimulationConfig cfg;
    cfg.ic.ng = 32;
    cfg.steps = 8;
    Simulation simulation(c, cosmo, cfg);
    finals[static_cast<std::size_t>(c.rank())] = simulation.run();
  });
  std::uint32_t crc = 0;
  auto chain = [&](const auto& v) {
    crc = crc32(v.data(), v.size() * sizeof(v[0]), crc);
  };
  for (const auto& p : finals) {
    chain(p.x);
    chain(p.y);
    chain(p.z);
    chain(p.vx);
    chain(p.vy);
    chain(p.vz);
    chain(p.tag);
  }
  return crc;
}

// The PM path's bits — deposit, FFT solve, force interpolation, kick/drift
// and redistribute — pinned at P = 1, 2 and 4.
TEST(Simulation, FinalParticlesMatchGolden) {
  EXPECT_EQ(final_particles_crc(1), 0x585940D4u) << "P = 1 drifted";
  EXPECT_EQ(final_particles_crc(2), 0xEBAB6B86u) << "P = 2 drifted";
  EXPECT_EQ(final_particles_crc(4), 0x704BE78Fu) << "P = 4 drifted";
}

// CRC32 of the particle state for a fixed seed at a fixed rank count
// (background streams are per-rank, so the rank count is part of the
// input). Particles are merged across ranks and sorted by tag so the
// decomposition's ordering does not matter. Only tags below `tag_limit`
// are hashed: the halo particles are those below Σ truth particles.
std::uint32_t synthetic_universe_crc(
    const SyntheticConfig& cfg, int ranks,
    std::int64_t tag_limit = std::numeric_limits<std::int64_t>::max()) {
  ParticleSet all;
  std::mutex m;
  comm::run_spmd(ranks, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    std::lock_guard lock(m);
    all.append(u.local);
  });
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < all.size(); ++i)
    if (all.tag[i] < tag_limit) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return all.tag[a] < all.tag[b];
  });
  ParticleSet sorted = all.select(order);
  std::uint32_t crc = 0;
  auto chain = [&](const auto& v) {
    crc = crc32(v.data(), v.size() * sizeof(v[0]), crc);
  };
  chain(sorted.x);
  chain(sorted.y);
  chain(sorted.z);
  chain(sorted.vx);
  chain(sorted.vy);
  chain(sorted.vz);
  chain(sorted.phi);
  chain(sorted.tag);
  return crc;
}

// A universe whose larger hosts carry subclumps: placement draws an NFW
// radius and a direction per clump, then samples each clump as its own
// blob from the host's stream.
SyntheticConfig subclump_config() {
  SyntheticConfig cfg;
  cfg.box = 32.0;
  cfg.seed = 20151115;
  cfg.halo_count = 16;
  cfg.min_particles = 200;
  cfg.max_particles = 12000;
  cfg.subclump_fraction = 0.2;
  cfg.subclump_min_host = 1000;
  cfg.background_particles = 400;
  return cfg;
}

class SynthRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, SynthRanks, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(SynthRanks, ParticleCountsMatchTruth) {
  const int P = GetParam();
  SyntheticConfig cfg;
  cfg.halo_count = 20;
  cfg.max_particles = 2000;
  cfg.background_particles = 1000;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    std::uint64_t truth_total = cfg.background_particles;
    for (const auto& t : u.truth) truth_total += t.particles;
    EXPECT_EQ(u.total_particles, truth_total);
    const auto total = c.allreduce_value<std::uint64_t>(u.local.size(),
                                                        comm::ReduceOp::Sum);
    EXPECT_EQ(total, truth_total);
    // Owned particles live in this rank's slab.
    SlabDecomposition d(P, cfg.box);
    for (std::size_t i = 0; i < u.local.size(); ++i)
      ASSERT_EQ(d.owner_of(u.local.z[i]), c.rank());
  });
}

TEST_P(SynthRanks, TruthCatalogIsIdenticalOnAllRanks) {
  const int P = GetParam();
  SyntheticConfig cfg;
  cfg.halo_count = 10;
  comm::run_spmd(P, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    // Hash the catalog and compare across ranks.
    double h = 0.0;
    for (const auto& t : u.truth)
      h += t.cx + 3 * t.cy + 7 * t.cz + static_cast<double>(t.particles);
    const double hmin = c.allreduce_value(h, comm::ReduceOp::Min);
    const double hmax = c.allreduce_value(h, comm::ReduceOp::Max);
    EXPECT_EQ(hmin, hmax);
  });
}

TEST_P(SynthRanks, HaloParticlesAreRankCountIndependent) {
  // Halo particles come from per-halo streams, so every rank count must
  // produce the same bits for them (background streams are per rank).
  const SyntheticConfig cfg = subclump_config();
  const auto halo_particles =
      static_cast<std::int64_t>(synthetic_total_particles(cfg) -
                                cfg.background_particles);
  EXPECT_EQ(synthetic_universe_crc(cfg, GetParam(), halo_particles),
            synthetic_universe_crc(cfg, 1, halo_particles));
}

TEST(Synthetic, MassesRespectConfiguredRange) {
  SyntheticConfig cfg;
  cfg.halo_count = 300;
  cfg.min_particles = 40;
  cfg.max_particles = 5000;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    for (const auto& t : u.truth) {
      EXPECT_GE(t.particles, cfg.min_particles);
      EXPECT_LE(t.particles, cfg.max_particles + 1);
    }
    // Power law: small halos dominate.
    std::size_t small = 0, large = 0;
    for (const auto& t : u.truth)
      (t.particles < 200 ? small : large) += 1;
    EXPECT_GT(small, large);
  });
}

TEST(Synthetic, HalosAreCompactAroundTruthCenters) {
  SyntheticConfig cfg;
  cfg.halo_count = 5;
  cfg.min_particles = 500;
  cfg.max_particles = 1000;
  cfg.background_particles = 0;
  cfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    // Every particle should be within ~r_vir of its halo's center.
    for (std::size_t i = 0; i < u.local.size(); ++i) {
      const auto tag = u.local.tag[i];
      const TruthHalo* owner = nullptr;
      for (const auto& t : u.truth)
        if (tag >= t.first_tag &&
            tag < t.first_tag + static_cast<std::int64_t>(t.particles))
          owner = &t;
      ASSERT_NE(owner, nullptr);
      const double d2 =
          periodic_dist2(u.local.x[i] - owner->cx, u.local.y[i] - owner->cy,
                         u.local.z[i] - owner->cz, cfg.box);
      EXPECT_LE(std::sqrt(d2), 1.7 * owner->r_vir);
    }
  });
}

TEST(Synthetic, FixedSeedYieldsStableParticleCrc) {
  SyntheticConfig cfg;
  cfg.box = 32.0;
  cfg.seed = 20151115;
  cfg.halo_count = 12;
  cfg.min_particles = 50;
  cfg.max_particles = 900;
  cfg.background_particles = 400;
  cfg.subclump_fraction = 0.0;

  const std::uint32_t crc = synthetic_universe_crc(cfg, 2);
  // Regeneration in the same process is bit-identical.
  EXPECT_EQ(synthetic_universe_crc(cfg, 2), crc);
  // ...and matches the golden value recorded for this platform. A change
  // here means the generator's output drifted — every catalog-level golden
  // downstream silently shifts with it, so treat this as a breaking change.
  EXPECT_EQ(crc, 0xBABF3685u) << "synthetic universe CRC drifted";
  // A different seed must change the stream.
  SyntheticConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(synthetic_universe_crc(other, 2), crc);
}

TEST(Synthetic, SubclumpUniverseYieldsStableParticleCrc) {
  const SyntheticConfig cfg = subclump_config();
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    const auto u = generate_synthetic(c, cosmo, cfg);
    std::size_t hosts = 0;
    for (const auto& t : u.truth) hosts += t.subclumps > 0 ? 1 : 0;
    EXPECT_GE(hosts, 2u) << "the config must plant subclumps";
  });
  // Recorded before the sampler was split into a draw and a solve pass.
  EXPECT_EQ(synthetic_universe_crc(cfg, 2), 0x2DCC36C9u)
      << "subclump universe CRC drifted";
}

TEST(Synthetic, SubclumpsPlantedInLargeHalos) {
  SyntheticConfig cfg;
  cfg.halo_count = 8;
  cfg.min_particles = 6000;
  cfg.max_particles = 20000;
  cfg.subclump_min_host = 5000;
  comm::run_spmd(1, [&](comm::Comm& c) {
    Cosmology cosmo;
    auto u = generate_synthetic(c, cosmo, cfg);
    for (const auto& t : u.truth) EXPECT_GE(t.subclumps, 2u);
  });
}

// The 60-step bisection the generator used to run per particle: the
// reference NfwInverse must reproduce bit for bit.
double nfw_bisect_reference(double u, double c) {
  const double target = u * sim::detail::nfw_mu(c);
  double lo = 0.0, hi = c;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    (sim::detail::nfw_mu(mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Over a million u: uniform draws, the ends 0 and 1, 2^-k·U for k ≤ 60
// (radii deep in the cusp), 1 − 2^-k·U for k ≤ 50 (radii next to c), and
// dyadic u = j·2^-k, exact binary fractions like hand-picked inputs.
std::vector<double> nfw_probe_us(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> us = {0.0, 1.0};
  for (int i = 0; i < 600000; ++i) us.push_back(rng.uniform());
  for (int k = 1; k <= 60; ++k)
    for (int i = 0; i < 4000; ++i) us.push_back(std::ldexp(rng.uniform(), -k));
  for (int k = 1; k <= 50; ++k)
    for (int i = 0; i < 4000; ++i)
      us.push_back(1.0 - std::ldexp(rng.uniform(), -k));
  for (int k = 1; k <= 53; ++k) {
    const std::uint64_t odd = std::uint64_t{1} << (k - 1);  // odd j < 2^k
    const std::uint64_t n = std::min<std::uint64_t>(odd, 2048);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t j = n == odd ? 2 * i + 1 : 2 * rng.below(odd) + 1;
      us.push_back(std::ldexp(static_cast<double>(j), -k));
    }
  }
  return us;
}

TEST(NfwInverse, MatchesSixtyStepBisectionBitForBit) {
  for (const double c : {1.5, 5.0, 9.0}) {
    const sim::detail::NfwInverse inverse(c);
    const std::vector<double> us = nfw_probe_us(static_cast<std::uint64_t>(c * 8));
    ASSERT_GE(us.size(), 1000000u);
    std::vector<char> bad(us.size(), 0);
    dpp::for_each_index(
        dpp::Backend::ThreadPool, us.size(),
        [&](std::size_t k) {
          bad[k] = !same_bits(inverse(us[k]), nfw_bisect_reference(us[k], c));
        },
        4096);
    const auto first = std::find(bad.begin(), bad.end(), 1);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 1), 0)
        << "c = " << c << ", first at u = " << std::hexfloat
        << (first == bad.end() ? 0.0 : us[first - bad.begin()]);
  }
}

// `d` representable doubles above x (below for d < 0); x > 0.
double ulps_from(double x, std::int64_t d) {
  return std::bit_cast<double>(std::bit_cast<std::int64_t>(x) + d);
}

TEST(NfwInverse, AnyBandGivesTheBisectionsBits) {
  // The certificates, not the Newton root, make the answer exact. Bands
  // around the answer from one ulp to a million wide, bands on the wrong
  // side of it, reversed, one-sided and NaN must all give the reference
  // bits; a band edge a few ulps past the answer is where nfw_mu's
  // rounding can still compare on the near side, which only the 2B
  // margin rejects.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double c : {1.5, 5.0, 9.0}) {
    const sim::detail::NfwInverse inverse(c);
    Rng rng(static_cast<std::uint64_t>(c * 16));
    std::size_t mismatches = 0;
    for (int i = 0; i < 3000; ++i) {
      const double u = i % 4 == 0 ? std::ldexp(rng.uniform(), -(i % 40))
                                  : rng.uniform();
      const double ref = nfw_bisect_reference(u, c);
      if (!(ref > 0.0)) continue;
      auto check = [&](double a, double b) {
        if (!same_bits(inverse(u, a, b), ref) && mismatches++ < 5)
          ADD_FAILURE() << "c = " << c << ", u = " << std::hexfloat << u
                        << ", band [" << a << ", " << b << "]";
      };
      check(nan, nan);
      for (const std::int64_t d : {1, 2, 3, 5, 8, 13, 1000, 1000000}) {
        check(ulps_from(ref, -d), ulps_from(ref, d));
        check(ulps_from(ref, d), ulps_from(ref, -d));
        check(ulps_from(ref, d), inf);
        check(-inf, ulps_from(ref, -d));
      }
    }
    EXPECT_EQ(mismatches, 0u) << "c = " << c;
  }
}

}  // namespace
