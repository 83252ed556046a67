// Tests for the stats module: power spectrum (against the input linear
// spectrum and across rank counts), mass function, and catalog
// reconciliation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/comm.h"
#include "sim/cosmology.h"
#include "sim/ic.h"
#include "stats/catalog.h"
#include "stats/mass_function.h"
#include "stats/power_spectrum.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::stats;

TEST(PowerSpectrum, RandomFieldIsShotNoise) {
  // Pure Poisson particles: P(k) ≈ V/N, so with shot-noise subtraction the
  // result should be consistent with zero (small compared to V/N).
  comm::run_spmd(2, [&](comm::Comm& c) {
    const double box = 64.0;
    const std::size_t n_per_rank = 20000;
    sim::SlabDecomposition decomp(2, box);
    sim::ParticleSet p;
    Rng rng(7 + static_cast<std::uint64_t>(c.rank()));
    for (std::size_t i = 0; i < n_per_rank; ++i)
      p.push_back(static_cast<float>(rng.uniform(0, box)),
                  static_cast<float>(rng.uniform(0, box)),
                  static_cast<float>(rng.uniform(decomp.z_lo(c.rank()),
                                                 decomp.z_hi(c.rank()))),
                  0, 0, 0, 0);
    PowerSpectrumConfig cfg;
    cfg.grid = 32;
    cfg.bins = 8;
    auto ps = measure_power_spectrum(c, p, box, 2 * n_per_rank, cfg);
    const double shot = box * box * box / (2.0 * n_per_rank);
    ASSERT_FALSE(ps.k.empty());
    for (std::size_t b = 0; b < ps.k.size(); ++b)
      EXPECT_LT(std::abs(ps.power[b]), 0.5 * shot)
          << "bin " << b << " k=" << ps.k[b];
  });
}

TEST(PowerSpectrum, ZeldovichFieldMatchesLinearTheoryShape) {
  // Measure P(k) of Zel'dovich ICs and compare against D²(a) P_lin(k).
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::IcConfig ic;
    ic.ng = 32;
    ic.box = 128.0;
    ic.z_init = 5.0;  // late start: signal well above shot noise
    ic.seed = 31;
    auto p = sim::zeldovich_ics(c, cosmo, ic);
    PowerSpectrumConfig cfg;
    cfg.grid = 32;
    cfg.bins = 6;
    // Lattice ICs carry no Poisson shot noise — subtracting V/N would bias
    // the estimate low (it exceeds the signal at these scales).
    cfg.subtract_shot_noise = false;
    const std::uint64_t ntot = 32ull * 32ull * 32ull;
    auto ps = measure_power_spectrum(c, p, ic.box, ntot, cfg);
    const double d = cosmo.growth(sim::Cosmology::a_of_z(ic.z_init));
    ASSERT_GE(ps.k.size(), 4u);
    for (std::size_t b = 0; b < 4; ++b) {
      const double expect = d * d * cosmo.linear_power(ps.k[b]);
      EXPECT_GT(ps.power[b], 0.5 * expect) << "k=" << ps.k[b];
      EXPECT_LT(ps.power[b], 2.0 * expect) << "k=" << ps.k[b];
    }
  });
}

TEST(PowerSpectrum, RankCountInvariant) {
  sim::Cosmology cosmo;
  sim::IcConfig ic;
  ic.ng = 16;
  ic.box = 64.0;
  ic.z_init = 10.0;
  ic.seed = 55;
  PowerSpectrumConfig cfg;
  cfg.grid = 16;
  cfg.bins = 5;
  const std::uint64_t ntot = 16ull * 16ull * 16ull;

  std::vector<double> p1, p4;
  comm::run_spmd(1, [&](comm::Comm& c) {
    auto p = sim::zeldovich_ics(c, cosmo, ic);
    auto ps = measure_power_spectrum(c, p, ic.box, ntot, cfg);
    if (c.rank() == 0) p1 = ps.power;
  });
  comm::run_spmd(4, [&](comm::Comm& c) {
    auto p = sim::zeldovich_ics(c, cosmo, ic);
    auto ps = measure_power_spectrum(c, p, ic.box, ntot, cfg);
    if (c.rank() == 0) p4 = ps.power;
  });
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t b = 0; b < p1.size(); ++b)
    EXPECT_NEAR(p4[b], p1[b], 1e-6 * std::abs(p1[b]) + 1e-12);
}

TEST(MassFunction, SplitsAtThreshold) {
  HaloCatalog cat;
  for (std::uint64_t n : {50u, 100u, 400u, 100000u, 400000u, 2000000u}) {
    HaloRecord h;
    h.id = static_cast<std::int64_t>(n);
    h.count = n;
    cat.push_back(h);
  }
  auto mf = mass_function(cat, 300000);
  EXPECT_EQ(mf.total_halos, 6u);
  EXPECT_EQ(mf.total_off_loaded, 2u);  // 400k and 2M
  std::uint64_t in_situ = 0, off = 0;
  for (std::size_t b = 0; b < mf.bin_lo.size(); ++b) {
    in_situ += mf.in_situ[b];
    off += mf.off_loaded[b];
  }
  EXPECT_EQ(in_situ, 4u);
  EXPECT_EQ(off, 2u);
}

TEST(MassFunction, PowerLawShapeDecreases) {
  // dn/dm ∝ m^-2: counts per log bin must fall with mass.
  Rng rng(3);
  HaloCatalog cat;
  for (int i = 0; i < 20000; ++i) {
    const double m = 40.0 / (1.0 - rng.uniform() * (1.0 - 40.0 / 1e6));
    HaloRecord h;
    h.id = i;
    h.count = static_cast<std::uint64_t>(m);
    cat.push_back(h);
  }
  auto mf = mass_function(cat, 300000, 12, 10.0, 1e7);
  // First populated bins must dominate the tail.
  ASSERT_GE(mf.bin_lo.size(), 3u);
  EXPECT_GT(mf.in_situ.front() + mf.off_loaded.front(),
            10 * (mf.in_situ.back() + mf.off_loaded.back()));
}

TEST(Catalog, ReconcileMergesDisjointParts) {
  HaloCatalog small, large;
  for (int i = 0; i < 5; ++i) {
    HaloRecord h;
    h.id = i;
    h.count = 100;
    small.push_back(h);
  }
  for (int i = 5; i < 8; ++i) {
    HaloRecord h;
    h.id = i;
    h.count = 1000000;
    large.push_back(h);
  }
  auto merged = reconcile_catalogs(small, large);
  ASSERT_EQ(merged.size(), 8u);
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged[i].id, static_cast<std::int64_t>(i));  // sorted by id
}

TEST(Catalog, ReconcileRejectsOverlap) {
  HaloCatalog a, b;
  HaloRecord h;
  h.id = 42;
  a.push_back(h);
  b.push_back(h);
  EXPECT_THROW(reconcile_catalogs(a, b), Error);
}

TEST(Catalog, BytesRoundTrip) {
  HaloCatalog cat;
  for (int i = 0; i < 17; ++i) {
    HaloRecord h;
    h.id = 1000 + i;
    h.count = static_cast<std::uint64_t>(i * i);
    h.cx = static_cast<float>(i);
    h.so_mass = 3.5f * i;
    h.subhalos = static_cast<std::uint32_t>(i % 3);
    cat.push_back(h);
  }
  auto bytes = catalog_to_bytes(cat);
  auto back = catalog_from_bytes(bytes);
  ASSERT_EQ(back.size(), cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(back[i].id, cat[i].id);
    EXPECT_EQ(back[i].count, cat[i].count);
    EXPECT_FLOAT_EQ(back[i].cx, cat[i].cx);
    EXPECT_FLOAT_EQ(back[i].so_mass, cat[i].so_mass);
    EXPECT_EQ(back[i].subhalos, cat[i].subhalos);
  }
}

TEST(Catalog, FromBytesRejectsBadLength) {
  std::vector<std::byte> bad(sizeof(HaloRecord) + 3);
  EXPECT_THROW(catalog_from_bytes(bad), Error);
}

TEST(Catalog, SummaryStatistics) {
  HaloCatalog cat;
  for (std::uint64_t n : {40u, 100u, 2000000u}) {
    HaloRecord h;
    h.count = n;
    cat.push_back(h);
  }
  auto s = summarize(cat);
  EXPECT_EQ(s.halos, 3u);
  EXPECT_EQ(s.particles_in_halos, 2000140u);
  EXPECT_EQ(s.largest, 2000000u);
}

}  // namespace
