// CosmoTools — the in-situ analysis framework (§3.1).
//
// Design principles as stated in the paper: minimally intrusive (the
// simulation's main loop makes one call per timestep), lightweight
// (algorithms operate directly on the simulation's distributed SoA arrays —
// "zero copy", no deep copies or redistribution), extensible (a pure
// abstract base class), and configurable from the problem setup.
//
// Every analysis task derives from InSituAlgorithm and implements:
//   SetParameters()  — configuration from the CosmoTools config section
//   ShouldExecute()  — cadence/trigger decision per timestep
//   Execute()        — the analysis itself
// The InSituAnalysisManager holds the registered algorithms and is the one
// object the simulation interacts with. The same algorithms are reusable
// from the stand-alone driver (workflows.h) for the off-line/co-scheduled
// paths, as the paper describes.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/comm.h"
#include "core/params.h"
#include "dpp/primitives.h"
#include "halo/fof.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "sim/simulation.h"
#include "stats/catalog.h"
#include "stats/power_spectrum.h"
#include "util/error.h"
#include "util/timer.h"

namespace cosmo::core {

/// Shared state handed to every algorithm at Execute time. `particles` is a
/// live, mutable view of the simulation's rank-local particle arrays
/// (zero-copy); algorithms may also publish results onto the blackboard
/// fields for downstream algorithms in the same step (the paper's halo
/// pipeline is sequential: find → center → SO → subhalos).
struct AnalysisContext {
  comm::Comm* comm = nullptr;
  const sim::SlabDecomposition* decomp = nullptr;
  sim::ParticleSet* particles = nullptr;  ///< rank-local Level 1 data (live)
  double box = 0.0;
  std::uint64_t total_particles = 0;
  dpp::Backend backend = dpp::Backend::ThreadPool;

  // ---- blackboard (outputs of earlier algorithms in this step) ----
  /// FOF result over owned+overload particles (set by HaloFinderAlgorithm).
  std::shared_ptr<halo::DistributedFofResult> fof;
  /// Halo id → index into fof->halos (set alongside fof), so the property
  /// algorithms match catalog records to member lists in O(1).
  std::unordered_map<std::int64_t, std::uint32_t> fof_index;
  /// Partial Level 3 catalog accumulated in-situ this step.
  stats::HaloCatalog catalog;
  /// Member lists (into fof->particles) of halos deferred for off-line
  /// analysis, plus their ids.
  std::vector<std::vector<std::uint32_t>> deferred_members;
  std::vector<std::int64_t> deferred_ids;
  /// Power spectra measured this step.
  std::vector<stats::PowerSpectrum> spectra;
};

/// Pure abstract base class for in-situ analysis tasks (§3.1).
class InSituAlgorithm {
 public:
  virtual ~InSituAlgorithm() = default;

  /// Configures the algorithm from its config-file section.
  virtual void SetParameters(const ParameterMap& params) = 0;

  /// True if the analysis should run at this timestep.
  virtual bool ShouldExecute(const sim::StepContext& step) const = 0;

  /// Performs the analysis. Collective across ranks.
  virtual void Execute(const sim::StepContext& step, AnalysisContext& ctx) = 0;

  /// Stable name; also the config section this algorithm reads.
  virtual std::string Name() const = 0;
};

/// Convenience base handling the common "enabled + cadence" parameters:
/// run when enabled and (step % cadence == 0 or final step).
class CadencedAlgorithm : public InSituAlgorithm {
 public:
  void SetParameters(const ParameterMap& params) override {
    enabled_ = params.get_bool("enabled", true);
    cadence_ = params.get_size("cadence", 1);
    COSMO_REQUIRE(cadence_ >= 1, "cadence must be at least 1");
    SetToolParameters(params);
  }

  bool ShouldExecute(const sim::StepContext& step) const override {
    if (!enabled_) return false;
    return step.step % cadence_ == 0 || step.step == step.total_steps;
  }

 protected:
  virtual void SetToolParameters(const ParameterMap& params) = 0;

 private:
  bool enabled_ = true;
  std::size_t cadence_ = 1;
};

/// Per-algorithm, per-step timing: the manager's ledger.
struct AlgorithmTiming {
  std::string name;
  std::size_t step = 0;
  double seconds = 0.0;  ///< this rank's execution time
};

/// The primary object interacting with the simulation code (§3.1): holds
/// the registered algorithms, configures them from the CosmoTools config,
/// and runs them inside the timestep loop.
class InSituAnalysisManager {
 public:
  InSituAnalysisManager(comm::Comm& comm, const sim::SlabDecomposition& decomp,
                        double box, std::uint64_t total_particles,
                        dpp::Backend backend = dpp::Backend::ThreadPool)
      : comm_(&comm),
        decomp_(&decomp),
        box_(box),
        total_particles_(total_particles),
        backend_(backend) {}

  /// Registers an algorithm (order = execution order within a step).
  void add(std::unique_ptr<InSituAlgorithm> algorithm) {
    algorithms_.push_back(std::move(algorithm));
  }

  std::size_t algorithm_count() const { return algorithms_.size(); }

  /// Configures every registered algorithm from its config section.
  void configure(const CosmoToolsConfig& config) {
    for (auto& a : algorithms_) a->SetParameters(config.section(a->Name()));
  }

  /// The single call the simulation makes per timestep. Returns the
  /// context holding this step's analysis products.
  AnalysisContext execute_step(const sim::StepContext& step,
                               sim::ParticleSet& particles) {
    AnalysisContext ctx;
    ctx.comm = comm_;
    ctx.decomp = decomp_;
    ctx.particles = &particles;
    ctx.box = box_;
    ctx.total_particles = total_particles_;
    ctx.backend = backend_;
    for (auto& a : algorithms_) {
      if (!a->ShouldExecute(step)) continue;
      WallTimer t;
      a->Execute(step, ctx);
      timings_.push_back({a->Name(), step.step, t.seconds()});
    }
    return ctx;
  }

  const std::vector<AlgorithmTiming>& timings() const { return timings_; }

  /// Total in-situ analysis seconds on this rank.
  double total_seconds() const {
    double s = 0.0;
    for (const auto& t : timings_) s += t.seconds;
    return s;
  }

 private:
  comm::Comm* comm_;
  const sim::SlabDecomposition* decomp_;
  double box_;
  std::uint64_t total_particles_;
  dpp::Backend backend_;
  std::vector<std::unique_ptr<InSituAlgorithm>> algorithms_;
  std::vector<AlgorithmTiming> timings_;
};

}  // namespace cosmo::core
