// Multi-timestep analysis campaigns — the production shape of the combined
// co-scheduled workflow.
//
// Table 4's caption is explicit: in production "a 4-node job for each
// timestep [is] queued as data is available", overlapping both the
// simulation and each other; the paper's full runs stored 100 snapshots.
// The CampaignRunner executes that loop for real: the simulation job steps
// through a sequence of snapshots (clustering grows step to step), the
// in-situ part runs inside each step and emits the step's Level 2 file +
// trigger, the Listener fires mid-run, and each trigger launches a real
// analysis job on its own thread — analysis of step k overlaps simulation
// of step k+1, exactly the co-scheduling overlap the paper is after.
// "Pile-up" (§3.2) is tolerated and measured: triggers can outpace analysis.
//
// Each step's analysis job is the combined workflows' Level 2 job
// (detail::run_level2_job over the step's Level 2 files, phases timed under
// phase.* spans in category "campaign"), and a step whose job never
// delivered reruns that same job on the simulation job's ranks after the
// drain. A simulation job that fails (every rank together, via
// Comm::agree_or_throw) still stops the Listener and joins every analysis
// job before the exception leaves run_campaign.
#pragma once

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/workflows.h"
#include "obs/obs.h"
#include "sched/listener.h"

namespace cosmo::core {

struct CampaignConfig {
  WorkflowProblem base;            ///< analysis settings + rank counts
  std::size_t timesteps = 4;
  /// Clustering growth: the max halo mass multiplies by this every step
  /// (structure forms over time, so later steps have heavier tails).
  double growth_per_step = 1.6;
};

struct StepOutcome {
  std::size_t step = 0;
  stats::HaloCatalog catalog;       ///< complete reconciled catalog
  double insitu_analysis_s = 0.0;   ///< max over ranks
  double offline_analysis_s = 0.0;
  std::uint64_t deferred_halos = 0;
  double trigger_to_done_s = 0.0;   ///< analysis-job turnaround
  /// True when the co-scheduled analysis never delivered (dead-lettered
  /// submit or failed job) and the step fell back to in-situ analysis.
  bool degraded = false;
};

struct CampaignResult {
  std::vector<StepOutcome> steps;
  double wall_clock_s = 0.0;          ///< whole campaign, overlapped
  double sim_job_s = 0.0;             ///< simulation job duration
  std::uint64_t listener_triggers = 0;
  std::uint64_t listener_polls = 0;
  std::size_t max_concurrent_analysis = 0;  ///< observed overlap/pile-up
  // Recovery bookkeeping (zero on a fault-free campaign).
  std::uint64_t degraded_steps = 0;
  std::uint64_t dead_letter_submits = 0;
  std::uint64_t analysis_job_failures = 0;
};

/// Runs a co-scheduled campaign. The per-step universe uses the base seed
/// plus the step index, with max_particles growing by growth_per_step — a
/// stand-in for evolving one simulation through its output cadence.
inline CampaignResult run_campaign(const CampaignConfig& cfg) {
  namespace fs = std::filesystem;
  COSMO_REQUIRE(cfg.timesteps >= 1, "campaign needs at least one step");
  COSMO_REQUIRE(cfg.base.threshold > 0,
                "campaign runs the combined workflow; set a split threshold");
  fs::create_directories(cfg.base.workdir);

  CampaignResult result;
  result.steps.resize(cfg.timesteps);
  std::mutex result_mutex;

  // Per-step problems (deterministic universes).
  std::vector<WorkflowProblem> problems(cfg.timesteps, cfg.base);
  for (std::size_t s = 0; s < cfg.timesteps; ++s) {
    auto& u = problems[s].universe;
    u.seed = cfg.base.universe.seed + s;
    u.max_particles = static_cast<std::size_t>(
        static_cast<double>(cfg.base.universe.max_particles) *
        std::pow(cfg.growth_per_step,
                 static_cast<double>(s) -
                     static_cast<double>(cfg.timesteps - 1)));
    if (u.max_particles < u.min_particles) u.max_particles = u.min_particles;
  }
  auto level2_base = [&](std::size_t step) {
    return cfg.base.workdir / ("level2.step" + std::to_string(step));
  };
  auto trigger_path = [&](std::size_t step) {
    return fs::path(level2_base(step).string() + ".alldone");
  };

  // The analysis side: one real job per trigger, each on its own thread.
  std::vector<std::thread> analysis_jobs;
  std::mutex jobs_mutex;
  std::atomic<int> running_analysis{0};
  std::atomic<std::size_t> peak_running{0};
  obs::TimedSpan campaign_timer("campaign.wall_clock", "campaign");

  // Tracks which steps the co-scheduled path actually delivered; anything
  // still pending after the drain is absorbed by the in-situ fallback.
  std::vector<std::uint8_t> offline_done(cfg.timesteps, 0);
  std::atomic<std::uint64_t> job_failures{0};

  // The Level 2 job over one step's files on `ranks` ranks with the given
  // backend — the co-scheduled job normally, the in-situ fallback when a
  // step degrades.
  auto level2_job = [&](std::size_t step, int ranks, dpp::Backend backend) {
    return detail::run_level2_job(
        problems[step], ranks, backend, "campaign",
        [&](int src, std::vector<sim::ParticleSet>& halos) {
          detail::read_level2_file(level2_base(step), src, halos);
        });
  };

  auto analysis_job = [&](std::size_t step) {
    const int now_running = ++running_analysis;
    std::size_t expected = peak_running.load();
    while (static_cast<std::size_t>(now_running) > expected &&
           !peak_running.compare_exchange_weak(
               expected, static_cast<std::size_t>(now_running))) {
    }
    obs::TimedSpan turnaround("campaign.analysis_job", "campaign");
    COSMO_COUNT("campaign.analysis_jobs", 1);
    try {
      auto job = level2_job(step, cfg.base.analysis_ranks,
                            cfg.base.analysis_backend);
      std::lock_guard lock(result_mutex);
      auto& out = result.steps[step];
      out.offline_analysis_s = job.analysis;
      out.trigger_to_done_s = turnaround.finish();
      out.catalog = stats::reconcile_catalogs(out.catalog, job.catalog);
      offline_done[step] = 1;
    } catch (const std::exception&) {
      // The co-scheduled job died (injected I/O failure, lost delivery…).
      // Leave the step unreconciled; the post-drain fallback absorbs it.
      COSMO_COUNT("campaign.analysis_job_failures", 1);
      ++job_failures;
    }
    --running_analysis;
  };

  // Listener: trigger file name encodes the step.
  sched::Listener listener(
      {cfg.base.workdir, ".alldone", std::chrono::milliseconds(3)},
      [&](const fs::path& trigger) {
        // File: level2.step<k>.alldone
        const std::string name = trigger.filename().string();
        const auto pos = name.find("step");
        COSMO_REQUIRE(pos != std::string::npos, "unexpected trigger name");
        const std::size_t step = std::stoul(name.substr(pos + 4));
        // A longer earlier campaign in this workdir may have left triggers
        // for steps this one does not run; they launch nothing.
        if (step >= cfg.timesteps) return;
        std::lock_guard lock(jobs_mutex);
        analysis_jobs.emplace_back(analysis_job, step);
      });
  // An earlier campaign's step triggers would fire at once, fold its Level 2
  // halos into this run's empty catalogs and hide the real triggers from
  // the listener. Remove them; one that cannot be removed throws.
  for (std::size_t s = 0; s < cfg.timesteps; ++s) fs::remove(trigger_path(s));
  listener.start();

  // Stops the listener, then joins every analysis job. Runs before this
  // function returns or throws: the jobs reference its locals, and
  // unwinding past a joinable std::thread calls std::terminate.
  auto drain = [&] {
    listener.stop();
    for (;;) {
      std::unique_lock lock(jobs_mutex);
      if (analysis_jobs.empty()) break;
      auto t = std::move(analysis_jobs.back());
      analysis_jobs.pop_back();
      lock.unlock();
      t.join();
    }
  };

  // The simulation job: all timesteps in one SPMD run.
  obs::TimedSpan sim_timer("campaign.sim_job", "campaign");
  try {
    comm::run_spmd(cfg.base.ranks, [&](comm::Comm& c) {
      for (std::size_t s = 0; s < cfg.timesteps; ++s) {
        const WorkflowProblem& p = problems[s];
        obs::TimedSpan t_sim("phase.sim", "campaign");
        sim::Cosmology cosmo;
        auto u = sim::generate_synthetic(c, cosmo, p.universe);
        t_sim.finish();
        obs::TimedSpan t_analysis("campaign.insitu_analysis", "campaign");
        auto out = detail::run_insitu_pipeline(c, p, p.threshold, u.local,
                                               u.total_particles);
        const double analysis_s = t_analysis.finish();

        // Emit the step's Level 2. Once the ranks agree the writes
        // succeeded, every rank's file exists and rank 0 may fire the
        // step trigger.
        c.agree_or_throw("Level 2 write", [&] {
          COSMO_TRACE_SPAN_CAT("phase.write", "campaign");
          detail::write_level2_file(level2_base(s), c.rank(), p.universe.box,
                                    out.deferred);
        });
        const double worst =
            c.allreduce_value(analysis_s, comm::ReduceOp::Max);
        const auto deferred = c.allreduce_value<std::uint64_t>(
            out.deferred.size(), comm::ReduceOp::Sum);
        auto catalog = detail::gather_catalog(c, out.catalog_part);
        if (c.rank() == 0) {
          {
            std::lock_guard lock(result_mutex);
            auto& step_out = result.steps[s];
            step_out.step = s;
            step_out.insitu_analysis_s = worst;
            step_out.deferred_halos = deferred;
            step_out.catalog = std::move(catalog);  // in-situ part
          }
          std::ofstream(trigger_path(s)) << "ok\n";
        }
        c.barrier();
      }
    });
  } catch (...) {
    drain();
    throw;
  }
  result.sim_job_s = sim_timer.finish();

  // Final listener sweep, then drain.
  listener.wait_for_triggers(cfg.timesteps, std::chrono::milliseconds(10000));
  drain();
  result.listener_triggers = listener.stats().triggers;
  result.listener_polls = listener.stats().polls;
  result.dead_letter_submits = listener.stats().dead_letters;
  result.analysis_job_failures = job_failures.load();
  result.max_concurrent_analysis = peak_running.load();

  // Graceful degradation: any step the co-scheduled path never delivered
  // (dead-lettered submit, missed trigger, or failed analysis job) falls
  // back to in-situ analysis on the simulation job's own resources — the
  // paper's decision structure — and the downgrade is recorded. Every
  // analysis job has been joined, so the results need no lock.
  for (std::size_t s = 0; s < cfg.timesteps; ++s) {
    if (offline_done[s] != 0) continue;
    COSMO_COUNT("workflow.degraded", 1);
    COSMO_TRACE_SPAN_CAT("workflow.degraded_step", "faults");
    ++result.degraded_steps;
    auto job = level2_job(s, cfg.base.ranks, cfg.base.backend);
    auto& out = result.steps[s];
    out.degraded = true;
    out.offline_analysis_s = job.analysis;
    out.catalog = stats::reconcile_catalogs(out.catalog, job.catalog);
  }

  result.wall_clock_s = campaign_timer.finish();
  return result;
}

}  // namespace cosmo::core
