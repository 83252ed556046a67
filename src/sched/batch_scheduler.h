// Discrete-event batch-cluster simulator.
//
// Co-scheduling (§3.2) is a statement about queues: analysis jobs submitted
// while the main simulation runs, subject to the facility's queue policy.
// The paper calls out Titan's policy specifically — only two jobs under 125
// nodes may run simultaneously, so co-scheduling many small analysis jobs
// there needs a queue exemption, while Rhea (the designated analysis
// cluster) keeps small-job wait times short. This simulator reproduces that
// decision structure: machines with node counts, charge factors, and
// small-job limits; FIFO dispatch with skip-ahead ("backfill") so a small
// job may start when the head of the queue doesn't fit; and conservation-
// checked core-hour accounting (Titan charges 30 core-hours per node-hour).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "faults/faults.h"
#include "obs/obs.h"
#include "util/error.h"

namespace cosmo::sched {

struct QueuePolicy {
  /// Max number of "small" jobs running at once (Titan: 2).
  int max_small_jobs_running = std::numeric_limits<int>::max();
  /// A job is "small" if it uses fewer nodes than this (Titan: 125).
  int small_job_threshold = 0;
  /// If false, a job may start ahead of earlier-submitted jobs that do not
  /// fit yet (backfill). If true, strict FIFO.
  bool strict_fifo = false;
  /// How many times a failed job (fault site "batch.job") is resubmitted
  /// before it is recorded as permanently failed.
  int max_requeues = 3;
};

struct MachineProfile {
  std::string name;
  int nodes = 1;
  /// Core-hours charged per node-hour (Titan: 30).
  double charge_per_node_hour = 1.0;
  /// Relative speed of the analysis kernels on this machine's accelerators
  /// (Titan K20X = 1.0 reference; Moonlight M2090 ≈ 1/0.55 slower).
  double analysis_speed = 1.0;
  bool has_gpus = true;
  QueuePolicy policy;

  /// Titan: 18,688 nodes, 30 core-hours/node-hour, ≤2 small (<125 node) jobs.
  static MachineProfile titan() {
    return {"Titan", 18688, 30.0, 1.0, true, {2, 125, false}};
  }
  /// Rhea: analysis cluster, CPU-only, generous small-job capacity.
  static MachineProfile rhea() {
    return {"Rhea", 512, 16.0, 1.0 / 50.0, false, {}};
  }
  /// Moonlight: LANL GPU cluster, flexible small-job queueing; the paper
  /// measured Titan ≈ 0.55× Moonlight's analysis time (Titan faster).
  static MachineProfile moonlight() {
    return {"Moonlight", 308, 16.0, 0.55, true, {}};
  }
};

using JobId = std::uint32_t;

struct JobRecord {
  std::string name;
  int nodes = 0;
  double duration_s = 0.0;   ///< runtime once started
  double submit_time = 0.0;
  double start_time = -1.0;  ///< −1 while queued
  double end_time = -1.0;
  int requeues = 0;     ///< resubmissions after injected failures
  bool failed = false;  ///< permanently failed (requeue budget exhausted)
  bool started() const { return start_time >= 0.0; }
  bool finished() const { return end_time >= 0.0; }
  double wait_s() const { return started() ? start_time - submit_time : -1.0; }
};

/// Event-driven simulation of one machine's batch queue.
class BatchScheduler {
 public:
  explicit BatchScheduler(MachineProfile profile) : profile_(std::move(profile)) {
    COSMO_REQUIRE(profile_.nodes > 0, "machine needs nodes");
  }

  const MachineProfile& profile() const { return profile_; }
  double now() const { return now_; }

  /// Submits a job at time `submit_time` (≥ current simulation time).
  JobId submit(const std::string& name, int nodes, double duration_s,
               double submit_time) {
    COSMO_REQUIRE(nodes > 0 && nodes <= profile_.nodes,
                  "job does not fit the machine: " + name);
    COSMO_REQUIRE(duration_s >= 0.0, "negative job duration");
    COSMO_REQUIRE(submit_time >= now_, "cannot submit in the past");
    JobRecord j;
    j.name = name;
    j.nodes = nodes;
    j.duration_s = duration_s;
    j.submit_time = submit_time;
    jobs_.push_back(j);
    completion_checked_.push_back(0);
    return static_cast<JobId>(jobs_.size() - 1);
  }

  /// Advances simulated time until every submitted job has finished.
  void run_to_completion() {
    for (;;) {
      // Settle the current instant: dispatching can complete zero-duration
      // jobs, and a failed completion requeues a job that may dispatch
      // again right away, so iterate until neither makes progress.
      bool progress = true;
      while (progress) {
        progress = dispatch();
        if (check_completions()) progress = true;
      }
      // Next event: the earliest future submit time or running-job
      // completion. Jobs already submitted but blocked (queue full, policy)
      // become startable only at one of those events, so they do not
      // generate events themselves.
      double next = std::numeric_limits<double>::max();
      bool blocked_now = false;
      for (const auto& j : jobs_) {
        if (j.started()) {
          if (j.end_time > now_) next = std::min(next, j.end_time);
        } else if (j.submit_time > now_) {
          next = std::min(next, j.submit_time);
        } else {
          blocked_now = true;
        }
      }
      if (next == std::numeric_limits<double>::max()) {
        COSMO_REQUIRE(!blocked_now,
                      "queue deadlock: blocked jobs but no future events");
        return;
      }
      now_ = next;
    }
  }

  const JobRecord& job(JobId id) const {
    COSMO_REQUIRE(id < jobs_.size(), "bad job id");
    return jobs_[id];
  }
  std::size_t job_count() const { return jobs_.size(); }

  /// Wall-clock when the last job finished.
  double makespan() const {
    double m = 0.0;
    for (const auto& j : jobs_) {
      COSMO_REQUIRE(j.finished(), "makespan before completion");
      m = std::max(m, j.end_time);
    }
    return m;
  }

  /// Total charged core-hours: Σ nodes × runtime × charge factor. Every
  /// attempt of a requeued job is charged — the facility bills failed runs
  /// too — so a job that ran requeues+1 times costs that multiple.
  double total_core_hours() const {
    double t = 0.0;
    for (const auto& j : jobs_) {
      COSMO_REQUIRE(j.finished(), "accounting before completion");
      t += j.nodes * (j.duration_s * (j.requeues + 1) / 3600.0) *
           profile_.charge_per_node_hour;
    }
    return t;
  }

 private:
  int nodes_in_use() const {
    int used = 0;
    for (const auto& j : jobs_)
      if (j.started() && j.end_time > now_) used += j.nodes;
    return used;
  }

  int small_jobs_running() const {
    int n = 0;
    for (const auto& j : jobs_)
      if (j.started() && j.end_time > now_ &&
          j.nodes < profile_.policy.small_job_threshold)
        ++n;
    return n;
  }

  bool dispatch() {
    bool any_started = false;
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& j : jobs_) {
        if (j.started() || j.submit_time > now_) continue;
        const bool fits = nodes_in_use() + j.nodes <= profile_.nodes;
        const bool small =
            j.nodes < profile_.policy.small_job_threshold;
        const bool small_ok =
            !small ||
            small_jobs_running() < profile_.policy.max_small_jobs_running;
        if (fits && small_ok) {
          j.start_time = now_;
          j.end_time = now_ + j.duration_s;
          COSMO_COUNT("sched.jobs_started", 1);
          progress = true;
          any_started = true;
        } else if (profile_.policy.strict_fifo) {
          return any_started;  // head of queue blocks everything behind it
        }
      }
    }
    return any_started;
  }

  /// Checks each newly completed run against the "batch.job" fault site:
  /// a failed run is resubmitted at the current time until the policy's
  /// requeue budget is exhausted, after which the job is marked failed.
  /// Returns true when a requeue re-opened work at the current instant.
  bool check_completions() {
    bool requeued = false;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      auto& j = jobs_[i];
      if (!j.started() || j.end_time > now_ || completion_checked_[i]) continue;
      completion_checked_[i] = 1;
      if (!COSMO_FAULT_POINT("batch.job")) continue;
      COSMO_COUNT("sched.jobs_failed", 1);
      if (j.requeues < profile_.policy.max_requeues) {
        ++j.requeues;
        COSMO_COUNT("sched.jobs_requeued", 1);
        j.submit_time = now_;
        j.start_time = -1.0;
        j.end_time = -1.0;
        completion_checked_[i] = 0;
        requeued = true;
      } else {
        j.failed = true;
      }
    }
    return requeued;
  }

  MachineProfile profile_;
  std::vector<JobRecord> jobs_;
  std::vector<std::uint8_t> completion_checked_;
  double now_ = 0.0;
};

}  // namespace cosmo::sched
