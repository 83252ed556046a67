// Tests for the core module: parameter parsing, the CosmoTools framework,
// the concrete algorithms, the split auto-tuner, and machine models.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "core/machine_model.h"
#include "core/params.h"
#include "core/split_tuner.h"
#include "sim/synthetic.h"

namespace {

using namespace cosmo;
using namespace cosmo::core;

// ------------------------------------------------------------------ params

TEST(ParameterMap, TypedAccessAndFallbacks) {
  ParameterMap p;
  p.set("count", "42");
  p.set("ratio", "2.5");
  p.set("flag", "true");
  p.set("name", "halo finder");
  EXPECT_EQ(p.get_size("count", 0), 42u);
  EXPECT_DOUBLE_EQ(p.get_double("ratio", 0.0), 2.5);
  EXPECT_TRUE(p.get_bool("flag", false));
  EXPECT_EQ(p.get_string("name"), "halo finder");
  EXPECT_EQ(p.get_size("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(p.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(p.get_bool("missing", false));
  EXPECT_EQ(p.get_string("missing", "dflt"), "dflt");
  p.set("count", "18446744073709551615");
  EXPECT_EQ(p.get_size("count", 0), std::numeric_limits<std::size_t>::max());
  for (const auto& [text, value] :
       {std::pair{"1e3", 1000.0}, std::pair{"-0.25", -0.25},
        std::pair{"1e-7", 1e-7}, std::pair{"40", 40.0}}) {
    p.set("ratio", text);
    EXPECT_EQ(p.get_double("ratio", 0.0), value) << "'" << text << "'";
  }
}

TEST(ParameterMap, BadValuesThrow) {
  ParameterMap p;
  p.set("count", "not-a-number");
  p.set("flag", "maybe");
  EXPECT_THROW(p.get_size("count", 0), Error);
  EXPECT_THROW(p.get_bool("flag", false), Error);
  EXPECT_THROW(p.get_string("missing"), Error);
  // A value must parse whole: no trailing text, no fraction or exponent in
  // a count, and no sign that an unsigned count would wrap.
  for (const char* bad : {"40x", "1e3", "0.5", "-1", "+1", "4 0", "",
                          "99999999999999999999"}) {
    p.set("count", bad);
    EXPECT_THROW(p.get_size("count", 0), Error) << "'" << bad << "'";
  }
  for (const char* bad : {"0.25abc", "1.5.2", "inf", "-inf", "nan", "1e400",
                          "", "x1"}) {
    p.set("ratio", bad);
    EXPECT_THROW(p.get_double("ratio", 0.0), Error) << "'" << bad << "'";
  }
}

// A negative cadence must fail at configure, not wrap to SIZE_MAX and pass
// the >= 1 check.
TEST(ParameterMap, NegativeCadenceFailsAtConfigure) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 64.0);
    InSituAnalysisManager manager(c, decomp, 64.0, 100);
    manager.add(std::make_unique<PowerSpectrumAlgorithm>());
    EXPECT_THROW(manager.configure(
                     CosmoToolsConfig::parse("[powerspectrum]\ncadence -1\n")),
                 Error);
    EXPECT_THROW(manager.configure(
                     CosmoToolsConfig::parse("[powerspectrum]\ncadence 0\n")),
                 Error);
    manager.configure(CosmoToolsConfig::parse("[powerspectrum]\ncadence 4\n"));
  });
}

TEST(CosmoToolsConfig, ParsesSectionsCommentsAndValues) {
  const std::string text = R"(
# global
output_dir /tmp/run1

[halofinder]
linking_length 0.28   # FOF b
min_size 40

[centerfinder]
threshold 300000
method astar
)";
  auto cfg = CosmoToolsConfig::parse(text);
  EXPECT_TRUE(cfg.has_section("halofinder"));
  EXPECT_TRUE(cfg.has_section("centerfinder"));
  EXPECT_FALSE(cfg.has_section("nonexistent"));
  EXPECT_EQ(cfg.section("").get_string("output_dir"), "/tmp/run1");
  EXPECT_DOUBLE_EQ(cfg.section("halofinder").get_double("linking_length", 0),
                   0.28);
  EXPECT_EQ(cfg.section("halofinder").get_size("min_size", 0), 40u);
  EXPECT_EQ(cfg.section("centerfinder").get_size("threshold", 0), 300000u);
  EXPECT_EQ(cfg.section("centerfinder").get_string("method"), "astar");
}

TEST(CosmoToolsConfig, RejectsMalformedInput) {
  EXPECT_THROW(CosmoToolsConfig::parse("[unclosed\nx 1\n"), Error);
  EXPECT_THROW(CosmoToolsConfig::parse("keywithoutvalue\n"), Error);
}

// -------------------------------------------------------------- cosmotools

/// Test double recording framework interactions.
class ProbeAlgorithm : public InSituAlgorithm {
 public:
  explicit ProbeAlgorithm(std::size_t cadence) : cadence_(cadence) {}
  void SetParameters(const ParameterMap& p) override {
    configured_ = true;
    label_ = p.get_string("label", "none");
  }
  bool ShouldExecute(const sim::StepContext& s) const override {
    return s.step % cadence_ == 0;
  }
  void Execute(const sim::StepContext&, AnalysisContext& ctx) override {
    ++executions_;
    last_particle_count_ = ctx.particles->size();
  }
  std::string Name() const override { return "probe"; }

  bool configured_ = false;
  std::string label_;
  int executions_ = 0;
  std::size_t last_particle_count_ = 0;

 private:
  std::size_t cadence_;
};

TEST(InSituAnalysisManager, ConfiguresAndRunsOnCadence) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 64.0);
    InSituAnalysisManager manager(c, decomp, 64.0, 100);
    auto probe = std::make_unique<ProbeAlgorithm>(2);
    auto* raw = probe.get();
    manager.add(std::move(probe));
    manager.configure(CosmoToolsConfig::parse("[probe]\nlabel hello\n"));
    EXPECT_TRUE(raw->configured_);
    EXPECT_EQ(raw->label_, "hello");

    sim::ParticleSet p(17);
    for (std::size_t s = 1; s <= 6; ++s) {
      sim::StepContext ctx{s, 6, 1.0, 0.0};
      manager.execute_step(ctx, p);
    }
    EXPECT_EQ(raw->executions_, 3);  // steps 2, 4, 6
    EXPECT_EQ(raw->last_particle_count_, 17u);
    // Only executed steps are timed.
    EXPECT_EQ(manager.timings().size(), 3u);
    EXPECT_GE(manager.total_seconds(), 0.0);
  });
}

TEST(CadencedAlgorithm, AlwaysRunsOnFinalStep) {
  class Dummy : public CadencedAlgorithm {
   public:
    void SetToolParameters(const ParameterMap&) override {}
    void Execute(const sim::StepContext&, AnalysisContext&) override {}
    std::string Name() const override { return "dummy"; }
  };
  Dummy d;
  ParameterMap p;
  p.set("cadence", "10");
  d.SetParameters(p);
  EXPECT_FALSE(d.ShouldExecute({3, 100, 1.0, 0.0}));
  EXPECT_TRUE(d.ShouldExecute({10, 100, 1.0, 0.0}));
  EXPECT_TRUE(d.ShouldExecute({100, 100, 1.0, 0.0}));  // final step
  p.set("enabled", "false");
  d.SetParameters(p);
  EXPECT_FALSE(d.ShouldExecute({10, 100, 1.0, 0.0}));
}

TEST(Algorithms, PipelineProducesCatalogWithCentersAndSoMasses) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 10;
  ucfg.min_particles = 60;
  ucfg.max_particles = 500;
  ucfg.background_particles = 500;
  ucfg.subclump_fraction = 0.0;
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(2, ucfg.box);
    InSituAnalysisManager manager(c, decomp, ucfg.box, u.total_particles);
    register_halo_pipeline(manager);
    manager.configure(CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.3\nmin_size 40\noverload 2.0\n"
        "[centerfinder]\nthreshold 0\n[somass]\ndelta 200\n"
        "[subhalos]\nenabled false\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    // Some halos must be found and centered on at least one rank.
    const auto total = c.allreduce_value<std::uint64_t>(ctx.catalog.size(),
                                                        comm::ReduceOp::Sum);
    EXPECT_GT(total, 3u);
    for (const auto& rec : ctx.catalog) {
      EXPECT_GE(rec.count, 40u);
      EXPECT_LT(rec.potential, 0.0f);
      EXPECT_GT(rec.so_mass, 0.0f) << "SO mass missing for halo " << rec.id;
      EXPECT_GT(rec.so_radius, 0.0f);
    }
    EXPECT_TRUE(ctx.deferred_members.empty());  // threshold 0: no deferral
  });
}

TEST(Algorithms, ThresholdDefersLargeHalos) {
  sim::SyntheticConfig ucfg;
  ucfg.box = 32.0;
  ucfg.halo_count = 8;
  ucfg.min_particles = 60;
  ucfg.max_particles = 3000;
  ucfg.background_particles = 0;
  ucfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(1, ucfg.box);
    InSituAnalysisManager manager(c, decomp, ucfg.box, u.total_particles);
    register_halo_pipeline(manager);
    const std::uint64_t threshold = 500;
    manager.configure(CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.3\nmin_size 40\noverload 2.0\n"
        "[centerfinder]\nthreshold " + std::to_string(threshold) +
        "\n[somass]\nenabled false\n[subhalos]\nenabled false\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    EXPECT_FALSE(ctx.deferred_members.empty());
    for (const auto& rec : ctx.catalog) EXPECT_LE(rec.count, threshold);
    for (const auto& members : ctx.deferred_members)
      EXPECT_GT(members.size(), threshold);
    EXPECT_EQ(ctx.deferred_members.size(), ctx.deferred_ids.size());
  });
}

TEST(Algorithms, CenterFinderRequiresHaloFinder) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(1, 32.0);
    InSituAnalysisManager manager(c, decomp, 32.0, 100);
    manager.add(std::make_unique<CenterFinderAlgorithm>());
    manager.configure(CosmoToolsConfig::parse(""));
    sim::ParticleSet p(10);
    sim::StepContext step{1, 1, 1.0, 0.0};
    EXPECT_THROW(manager.execute_step(step, p), Error);
  });
}

TEST(Algorithms, PowerSpectrumAlgorithmPublishesSpectrum) {
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::SlabDecomposition decomp(2, 64.0);
    sim::ParticleSet p;
    Rng rng(4 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 5000; ++i)
      p.push_back(static_cast<float>(rng.uniform(0, 64)),
                  static_cast<float>(rng.uniform(0, 64)),
                  static_cast<float>(rng.uniform(decomp.z_lo(c.rank()),
                                                 decomp.z_hi(c.rank()))),
                  0, 0, 0, i);
    InSituAnalysisManager manager(c, decomp, 64.0, 10000);
    manager.add(std::make_unique<PowerSpectrumAlgorithm>());
    manager.configure(CosmoToolsConfig::parse("[powerspectrum]\ngrid 16\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, p);
    ASSERT_EQ(ctx.spectra.size(), 1u);
    EXPECT_FALSE(ctx.spectra[0].k.empty());
  });
}

// ------------------------------------------------------------- split tuner

TEST(SplitTuner, CostModelInversion) {
  CenterCostModel m{1e-8};
  EXPECT_DOUBLE_EQ(m.seconds(1000), 1e-8 * 1e6);
  EXPECT_EQ(m.max_halo_within(1e-2), 1000u);
  EXPECT_EQ(m.max_halo_within(0.0), 0u);
}

TEST(SplitTuner, AllInSituWhenHalosAreSmall) {
  io::FilesystemModel fs{1e9, 1.0};
  io::InterconnectModel net{1e9, 1.0};
  CenterCostModel cost{1e-6};
  // t_io ≈ 3 + 3·36e6/1e9·... for 1e6 particles: ~3.1 s → m_max_io ≈ 1760.
  std::vector<std::uint64_t> halos{100, 500, 1200};
  auto d = tune_split(1000000, halos, fs, net, cost);
  EXPECT_GT(d.t_io_s, 3.0);
  EXPECT_TRUE(d.all_in_situ);
  EXPECT_EQ(d.largest_halo, 1200u);
}

TEST(SplitTuner, SplitsWhenMonsterHaloExists) {
  io::FilesystemModel fs{1e9, 1.0};
  io::InterconnectModel net{1e9, 1.0};
  CenterCostModel cost{1e-6};
  std::vector<std::uint64_t> halos{100, 500, 1200, 50000, 80000};
  auto d = tune_split(1000000, halos, fs, net, cost);
  EXPECT_FALSE(d.all_in_situ);
  EXPECT_EQ(d.largest_halo, 80000u);
  EXPECT_GT(d.threshold, 0u);
  EXPECT_LT(d.threshold, 50000u);
  // T = c(50000² + 80000²) = 2500 + 6400 = 8900 s; t_max = 6400 s → 2 ranks.
  EXPECT_NEAR(d.total_offline_work_s, 8900.0, 1.0);
  EXPECT_NEAR(d.largest_halo_work_s, 6400.0, 1.0);
  EXPECT_EQ(d.coschedule_ranks, 2u);
}

TEST(SplitTuner, BalanceHalosProducesEvenLoads) {
  CenterCostModel cost{1.0};
  std::vector<std::uint64_t> sizes{100, 90, 80, 50, 50, 40, 30, 20, 10, 10};
  auto assignment = balance_halos(sizes, 3, cost);
  ASSERT_EQ(assignment.size(), 3u);
  std::vector<double> load(3, 0.0);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (const auto h : assignment[r]) {
      load[r] += cost.seconds(sizes[h]);
      ++assigned;
    }
  }
  EXPECT_EQ(assigned, sizes.size());
  const double max_load = *std::max_element(load.begin(), load.end());
  const double min_load = *std::min_element(load.begin(), load.end());
  // LPT guarantee: max ≤ (4/3) OPT; here just require gross balance.
  EXPECT_LT(max_load, 2.0 * min_load + cost.seconds(100));
}

TEST(SplitTuner, CalibrationRoundTrips) {
  auto model = calibrate_center_cost(
      [](std::uint64_t n) {
        return 2e-9 * static_cast<double>(n) * static_cast<double>(n);
      },
      10000);
  EXPECT_NEAR(model.coeff, 2e-9, 1e-15);
}

// ------------------------------------------------------------ machine model

TEST(MachineModel, QContinuumAccountingMatchesPaper) {
  const auto a = qcontinuum_accounting({});
  // §4.1: "resulting in 985 node hours, or ~30,000 core hours".
  EXPECT_NEAR(a.offline_core_hours, 985 * 30.0, 500.0);
  // "the analysis required 0.52M core hours".
  EXPECT_NEAR(a.combined_core_hours, 0.52e6, 0.02e6);
  // "3.4M core hours" for the full in-situ/off-line alternative.
  EXPECT_NEAR(a.insitu_only_core_hours, 3.4e6, 0.1e6);
  // "a factor of 6.5 more expensive".
  EXPECT_NEAR(a.cost_ratio, 6.5, 0.2);
}

TEST(MachineModel, SpeedupProjection) {
  SpeedupModel s;
  // A kernel measured at 100 s on a 1.0-speed machine takes 50 s at 2.0.
  EXPECT_DOUBLE_EQ(s.project(100.0, 1.0, 2.0), 50.0);
  EXPECT_THROW(s.project(1.0, 0.0, 1.0), Error);
  EXPECT_DOUBLE_EQ(s.gpu_over_cpu, 50.0);
  EXPECT_DOUBLE_EQ(s.astar_over_brute, 8.0);
}

}  // namespace
