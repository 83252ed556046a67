// Tests for the paper-adjacent extensions: computational steering (live
// reconfiguration, §3.1) and halo concentration (Table 1's Level 3
// product).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/algorithms.h"
#include "core/steering.h"
#include "sim/synthetic.h"
#include "stats/concentration.h"

namespace {

using namespace cosmo;
using namespace cosmo::core;
namespace fs = std::filesystem;

// ------------------------------------------------------------------ steering

class CountingAlgorithm : public InSituAlgorithm {
 public:
  void SetParameters(const ParameterMap& p) override {
    cadence_ = p.get_size("cadence", 1);
  }
  bool ShouldExecute(const sim::StepContext& s) const override {
    return s.step % cadence_ == 0;
  }
  void Execute(const sim::StepContext&, AnalysisContext&) override {
    ++executions_;
  }
  std::string Name() const override { return "counting"; }

  std::size_t cadence_ = 1;
  int executions_ = 0;
};

class SteeringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("steer_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void write_config(const std::string& text) {
    std::ofstream(dir_ / "cosmotools.cfg") << text;
  }
  fs::path dir_;
};

TEST_F(SteeringTest, ReloadsOnFileChange) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 64.0);
    InSituAnalysisManager manager(c, decomp, 64.0, 100);
    auto probe = std::make_unique<CountingAlgorithm>();
    auto* raw = probe.get();
    manager.add(std::move(probe));

    SteeringFile steer(dir_ / "cosmotools.cfg");
    write_config("[counting]\ncadence 2\n");
    EXPECT_TRUE(steer.poll(manager));
    EXPECT_EQ(raw->cadence_, 2u);
    // No change → no reload.
    EXPECT_FALSE(steer.poll(manager));
    EXPECT_EQ(steer.reload_count(), 1u);
    // The scientist edits the file mid-run (ensure a newer mtime).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_config("[counting]\ncadence 7\n");
    fs::last_write_time(dir_ / "cosmotools.cfg",
                        fs::file_time_type::clock::now() +
                            std::chrono::seconds(1));
    EXPECT_TRUE(steer.poll(manager));
    EXPECT_EQ(raw->cadence_, 7u);
    EXPECT_EQ(steer.reload_count(), 2u);
  });
}

TEST_F(SteeringTest, MissingFileIsSilentlyIgnored) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 64.0);
    InSituAnalysisManager manager(c, decomp, 64.0, 100);
    SteeringFile steer(dir_ / "does-not-exist.cfg");
    EXPECT_FALSE(steer.poll(manager));
    EXPECT_EQ(steer.reload_count(), 0u);
  });
}

TEST_F(SteeringTest, MalformedEditThrowsWithoutReconfiguring) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 64.0);
    InSituAnalysisManager manager(c, decomp, 64.0, 100);
    auto probe = std::make_unique<CountingAlgorithm>();
    auto* raw = probe.get();
    manager.add(std::move(probe));
    SteeringFile steer(dir_ / "cosmotools.cfg");
    write_config("[counting]\ncadence 4\n");
    steer.poll(manager);
    EXPECT_EQ(raw->cadence_, 4u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_config("[broken\n");
    fs::last_write_time(dir_ / "cosmotools.cfg",
                        fs::file_time_type::clock::now() +
                            std::chrono::seconds(1));
    EXPECT_THROW(steer.poll(manager), Error);
    EXPECT_EQ(raw->cadence_, 4u);  // previous configuration still active
  });
}

// ------------------------------------------------------------- concentration

TEST(Concentration, HalfMassFractionIsMonotone) {
  double prev = 1.0;
  for (double c : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    const double x = stats::nfw_half_mass_fraction(c);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_LT(x, prev) << "more concentrated → smaller half-mass radius";
    prev = x;
  }
}

TEST(Concentration, RecoversPlantedNfwConcentration) {
  // Sample an NFW halo with known c; the estimator should land near it.
  for (double c_true : {4.0, 8.0}) {
    Rng rng(77);
    sim::ParticleSet p;
    const double r_vir = 1.0;
    const std::size_t n = 20000;
    for (std::size_t i = 0; i < n; ++i) {
      // Invert μ for an exact NFW radial sample.
      const double u = rng.uniform();
      double lo = 0.0, hi = c_true;
      const double target = u * (std::log1p(c_true) - c_true / (1 + c_true));
      for (int it = 0; it < 50; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double mu = std::log1p(mid) - mid / (1 + mid);
        (mu < target ? lo : hi) = mid;
      }
      const double r = 0.5 * (lo + hi) / c_true * r_vir;
      const double cz = rng.uniform(-1, 1), ph = rng.uniform(0, 2 * M_PI);
      const double s = std::sqrt(1 - cz * cz);
      p.push_back(static_cast<float>(5 + r * s * std::cos(ph)),
                  static_cast<float>(5 + r * s * std::sin(ph)),
                  static_cast<float>(5 + r * cz), 0, 0, 0,
                  static_cast<std::int64_t>(i));
    }
    std::vector<std::uint32_t> members(n);
    std::iota(members.begin(), members.end(), 0u);
    auto half = stats::concentration(p, members, 5, 5, 5);
    EXPECT_NEAR(half.c, c_true, 0.25 * c_true) << "half-mass, c_true=" << c_true;
    auto fit = stats::concentration_profile_fit(p, members, 5, 5, 5);
    EXPECT_NEAR(fit.c, c_true, 0.3 * c_true) << "profile fit, c_true=" << c_true;
  }
}

TEST(Concentration, OffCenterUnderestimates) {
  // §3.3.2: "if the center is not exactly at the density maximum, the
  // concentration will be underestimated."
  Rng rng(78);
  sim::ParticleSet p;
  const double c_true = 8.0;
  for (std::size_t i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    double lo = 0.0, hi = c_true;
    const double target = u * (std::log1p(c_true) - c_true / (1 + c_true));
    for (int it = 0; it < 50; ++it) {
      const double mid = 0.5 * (lo + hi);
      const double mu = std::log1p(mid) - mid / (1 + mid);
      (mu < target ? lo : hi) = mid;
    }
    const double r = 0.5 * (lo + hi) / c_true;
    const double cz = rng.uniform(-1, 1), ph = rng.uniform(0, 2 * M_PI);
    const double s = std::sqrt(1 - cz * cz);
    p.push_back(static_cast<float>(5 + r * s * std::cos(ph)),
                static_cast<float>(5 + r * s * std::sin(ph)),
                static_cast<float>(5 + r * cz), 0, 0, 0,
                static_cast<std::int64_t>(i));
  }
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  auto good = stats::concentration_profile_fit(p, members, 5, 5, 5);
  auto bad = stats::concentration_profile_fit(p, members, 5.3, 5, 5);
  ASSERT_GT(good.c, 0.0);
  ASSERT_GT(bad.c, 0.0);
  EXPECT_LT(bad.c, 0.8 * good.c)
      << "an off-center profile must flatten the core and lower c";
}

TEST(Concentration, TooFewParticlesIndeterminate) {
  sim::ParticleSet p;
  for (int i = 0; i < 10; ++i) p.push_back(1, 1, 1, 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);
  EXPECT_EQ(stats::concentration(p, members, 1, 1, 1).c, 0.0);
}

TEST(Shapes, AlgorithmFillsAxisRatios) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 5;
  ucfg.min_particles = 300;
  ucfg.max_particles = 900;
  ucfg.background_particles = 0;
  ucfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(1, ucfg.box);
    InSituAnalysisManager manager(c, decomp, ucfg.box, u.total_particles);
    manager.add(std::make_unique<HaloFinderAlgorithm>());
    manager.add(std::make_unique<CenterFinderAlgorithm>());
    manager.add(std::make_unique<ShapeAlgorithm>());
    manager.configure(CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.35\nmin_size 100\noverload 2.0\n"
        "[centerfinder]\nthreshold 0\n[shapes]\nmin_size 100\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    ASSERT_FALSE(ctx.catalog.empty());
    for (const auto& rec : ctx.catalog) {
      // NFW halos are isotropically sampled: roughly round.
      EXPECT_GT(rec.b_over_a, 0.5f) << "halo " << rec.id;
      EXPECT_LE(rec.b_over_a, 1.0f + 1e-5f);
      EXPECT_GT(rec.c_over_a, 0.4f);
      EXPECT_LE(rec.c_over_a, rec.b_over_a + 1e-5f);
    }
  });
}

TEST(Concentration, AlgorithmFillsCatalogField) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 6;
  ucfg.min_particles = 400;
  ucfg.max_particles = 1500;
  ucfg.background_particles = 0;
  ucfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(1, ucfg.box);
    InSituAnalysisManager manager(c, decomp, ucfg.box, u.total_particles);
    manager.add(std::make_unique<HaloFinderAlgorithm>());
    manager.add(std::make_unique<CenterFinderAlgorithm>());
    manager.add(std::make_unique<ConcentrationAlgorithm>());
    manager.configure(CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.35\nmin_size 100\noverload 2.0\n"
        "[centerfinder]\nthreshold 0\n[concentration]\nmin_size 100\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    ASSERT_FALSE(ctx.catalog.empty());
    std::size_t with_c = 0;
    for (const auto& rec : ctx.catalog)
      if (rec.concentration > 0.0f) ++with_c;
    EXPECT_GT(with_c, 0u) << "no halo got a concentration estimate";
  });
}

}  // namespace
