// Scenario: extending CosmoTools with a new in-situ analysis algorithm.
//
// The paper's framework is "extensible to support new analysis algorithms"
// (§3.1): a new tool derives from InSituAlgorithm (here via the
// CadencedAlgorithm convenience base), implements SetParameters /
// ShouldExecute / Execute, and registers with the manager — no changes to
// the simulation code. This example adds a velocity-dispersion monitor that
// piggybacks on the halo finder's blackboard output to report the hottest
// halo each step, something an astrophysicist might bolt on mid-campaign
// for computational steering.
//
// Build & run:  ./build/examples/custom_algorithm
#include <cmath>
#include <cstdio>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "sim/synthetic.h"

using namespace cosmo;

namespace {

/// A user-defined analysis task: per-halo 3-D velocity dispersion.
class VelocityDispersionAlgorithm : public core::CadencedAlgorithm {
 public:
  std::string Name() const override { return "veldisp"; }

  void SetToolParameters(const core::ParameterMap& p) override {
    min_halo_ = p.get_size("min_halo", 100);
  }

  void Execute(const sim::StepContext&, core::AnalysisContext& ctx) override {
    COSMO_REQUIRE(ctx.fof != nullptr, "veldisp needs the halofinder first");
    const auto& p = ctx.fof->particles;
    hottest_sigma_ = 0.0;
    hottest_id_ = -1;
    for (const auto& h : ctx.fof->halos) {
      if (h.members.size() < min_halo_) continue;
      double mx = 0, my = 0, mz = 0;
      for (const auto i : h.members) {
        mx += p.vx[i];
        my += p.vy[i];
        mz += p.vz[i];
      }
      const auto n = static_cast<double>(h.members.size());
      mx /= n;
      my /= n;
      mz /= n;
      double var = 0.0;
      for (const auto i : h.members) {
        const double dx = p.vx[i] - mx, dy = p.vy[i] - my, dz = p.vz[i] - mz;
        var += dx * dx + dy * dy + dz * dz;
      }
      const double sigma = std::sqrt(var / n);
      if (sigma > hottest_sigma_) {
        hottest_sigma_ = sigma;
        hottest_id_ = h.id;
      }
    }
  }

  double hottest_sigma() const { return hottest_sigma_; }
  std::int64_t hottest_id() const { return hottest_id_; }

 private:
  std::size_t min_halo_ = 100;
  double hottest_sigma_ = 0.0;
  std::int64_t hottest_id_ = -1;
};

}  // namespace

int main() {
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::SyntheticConfig ucfg;
    ucfg.box = 32.0;
    ucfg.halo_count = 12;
    ucfg.min_particles = 150;
    ucfg.max_particles = 3000;
    ucfg.background_particles = 500;
    ucfg.subclump_fraction = 0.0;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);

    sim::SlabDecomposition decomp(c.size(), ucfg.box);
    core::InSituAnalysisManager manager(c, decomp, ucfg.box,
                                        u.total_particles);
    // Built-in finder + the custom tool, configured like any other section.
    manager.add(std::make_unique<core::HaloFinderAlgorithm>());
    auto veldisp = std::make_unique<VelocityDispersionAlgorithm>();
    auto* probe = veldisp.get();
    manager.add(std::move(veldisp));
    manager.configure(core::CosmoToolsConfig::parse(R"(
[halofinder]
linking_length 0.35
min_size 60
overload 2.5

[veldisp]
min_halo 150
)"));

    sim::StepContext step{1, 1, 1.0, 0.0};
    manager.execute_step(step, u.local);

    const double hottest =
        c.allreduce_value(probe->hottest_sigma(), comm::ReduceOp::Max);
    if (c.rank() == 0)
      std::printf("hottest halo velocity dispersion: sigma = %.3f "
                  "(rank-local id %lld)\n",
                  hottest, static_cast<long long>(probe->hottest_id()));
    // Per-algorithm timing comes for free from the manager's ledger.
    for (const auto& t : manager.timings())
      if (c.rank() == 0)
        std::printf("  [%s] step %zu: %.4f s\n", t.name.c_str(), t.step,
                    t.seconds);
  });
  return 0;
}
