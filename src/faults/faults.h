// Deterministic fault injection: a process-wide, seeded fault plan.
//
// Production co-scheduling workflows fail in many small ways — a dropped
// message, a partial Lustre write, a poll the Listener missed, a batch job
// that dies and must be requeued. The recovery policies layered on top
// (retry, fallback-to-filesystem, workflow degradation) are only trustworthy
// if the failure paths are exercised, and only testable if the failures are
// reproducible. This module provides both:
//
//   * `faults::Plan` — a seeded plan combining per-site probabilities with an
//     explicit schedule of (site, rank, occurrence) injections. Decisions are
//     pure hashes of (seed, site, rank, occurrence), never a shared
//     sequential RNG stream, so they are independent of thread interleaving:
//     a site whose per-rank call sequence is deterministic injects the exact
//     same faults on every run with the same seed.
//   * `COSMO_FAULT_POINT("site")` — the hot-path query, false when no plan
//     is armed.
//
// A plan is configured first, then armed with `ScopedPlan`; every injection
// is logged as (site, rank, occurrence) and counted under `faults.injected`,
// which is what makes failing runs replayable from their seed.
//
// Occurrence counters are keyed per (site, rank): rank identity comes from
// obs::current_rank() (SPMD rank threads), with -1 for rank-less threads
// (main thread, the Listener). Sites queried only from deterministic per-rank
// call sequences — comm sends, io writes, staging puts — replay bit-
// identically; wall-clock-paced sites (listener.poll) have deterministic
// *behavior* per decision but timing-dependent occurrence counts, so replay
// assertions should stick to scheduled injections there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "obs/obs.h"
#include "util/error.h"

namespace cosmo::faults {

/// Wildcard rank for scheduled injections: fires at the given occurrence on
/// every rank's counter. (Rank -1 is the real identity of rank-less threads,
/// so the wildcard must live outside the valid rank range.)
inline constexpr int kAnyRank = -2;

namespace detail {

/// FNV-1a over the site name; stable across runs and platforms.
inline constexpr std::uint64_t site_hash(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// splitmix64-style finalizer; decorrelates nearby inputs.
inline constexpr std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The per-decision coin: a pure function of plan seed + injection site +
/// rank + occurrence index, so the outcome is independent of when (or on
/// which thread) the decision is evaluated.
inline constexpr std::uint64_t decision_hash(std::uint64_t seed,
                                             std::uint64_t site,
                                             int rank,
                                             std::uint64_t occurrence) {
  std::uint64_t h = mix(seed ^ site);
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(rank)));
  return mix(h ^ occurrence);
}

}  // namespace detail

/// One injected fault, as recorded in the plan's log.
struct Injection {
  std::string site;
  int rank = -1;
  std::uint64_t occurrence = 0;

  friend bool operator==(const Injection&, const Injection&) = default;
  friend auto operator<=>(const Injection&, const Injection&) = default;
};

/// Key for an explicitly scheduled injection: "fail the `occurrence`-th
/// query of `site` on `rank`" (kAnyRank = on every rank).
struct FaultKey {
  std::string site;
  std::uint64_t occurrence = 0;
  int rank = kAnyRank;
};

/// Convenience builder mirroring the obs macro style:
/// `plan.schedule(faults::at("comm.send", 3, 0))`.
inline FaultKey at(std::string site, std::uint64_t occurrence,
                   int rank = kAnyRank) {
  return FaultKey{std::move(site), occurrence, rank};
}

/// A seeded fault plan. Configure (set_rate / set_param / schedule), then arm
/// it with ScopedPlan; configuration must not change while armed.
class Plan {
 public:
  explicit Plan(std::uint64_t seed = 0) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Inject at `site` with the given probability per query; `max_injections`
  /// caps the total fired at that site (default: unlimited). Note the cap is
  /// claimed in query order, so a capped probabilistic site shared by
  /// concurrent threads is not replay-deterministic — prefer uncapped rates
  /// or scheduled keys when asserting exact logs.
  void set_rate(std::string_view site, double probability,
                std::uint64_t max_injections = ~std::uint64_t{0}) {
    COSMO_REQUIRE(probability >= 0.0 && probability <= 1.0,
                  "fault probability outside [0, 1]");
    std::lock_guard<std::mutex> lock(mutex_);
    auto& st = sites_[std::string(site)];
    st.probability = probability;
    st.max_injections = max_injections;
  }

  /// Attach an integer parameter to a site (e.g. a delay in ms or a slowdown
  /// factor), read back at the fault point via COSMO_FAULT_PARAM.
  void set_param(std::string_view site, std::uint64_t value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& st = sites_[std::string(site)];
    st.param = value;
    st.has_param = true;
  }

  /// Schedule an explicit injection.
  void schedule(const FaultKey& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    sites_[key.site].scheduled.insert({key.rank, key.occurrence});
  }

  /// The hot-path query: bumps the caller's (site, rank) occurrence counter
  /// and decides — scheduled hit, or probability coin from the decision
  /// hash. Called via COSMO_FAULT_POINT, never directly from library code.
  bool should_inject(std::string_view site) {
    const int rank = obs::current_rank();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    auto& st = it->second;
    const std::uint64_t occ = st.next_occurrence[rank]++;
    bool fire = st.scheduled.count({rank, occ}) != 0 ||
                st.scheduled.count({kAnyRank, occ}) != 0;
    if (!fire && st.probability > 0.0) {
      const std::uint64_t coin =
          detail::decision_hash(seed_, detail::site_hash(site), rank, occ);
      fire = static_cast<double>(coin) * 0x1.0p-64 < st.probability;
    }
    if (!fire || st.injected >= st.max_injections) return false;
    ++st.injected;
    log_.push_back(Injection{std::string(site), rank, occ});
    COSMO_COUNT("faults.injected", 1);
    return true;
  }

  /// Site parameter, or `fallback` if the site has none configured.
  std::uint64_t param(std::string_view site, std::uint64_t fallback) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sites_.find(site);
    if (it == sites_.end() || !it->second.has_param) return fallback;
    return it->second.param;
  }

  /// Total faults fired so far.
  std::uint64_t injected_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_.size();
  }

  /// Sorted snapshot of the injection log: the replay artifact. Two runs of
  /// a deterministic workload under equal plans produce equal logs.
  std::vector<Injection> injections() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Injection> out = log_;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Pure jitter helper: hash of (seed, name, attempt) reduced modulo
  /// `bound`. Used by util::Retry so backoff jitter replays with the plan.
  static std::uint64_t jitter_for(std::uint64_t seed, std::string_view name,
                                  std::uint64_t attempt, std::uint64_t bound) {
    if (bound <= 1) return 0;
    return detail::mix(detail::decision_hash(seed, detail::site_hash(name),
                                             kAnyRank, attempt)) %
           bound;
  }

 private:
  struct SiteState {
    double probability = 0.0;
    std::uint64_t max_injections = ~std::uint64_t{0};
    std::uint64_t param = 0;
    bool has_param = false;
    std::uint64_t injected = 0;
    // (rank, occurrence) pairs scheduled to fire; kAnyRank matches all.
    std::set<std::pair<int, std::uint64_t>> scheduled;
    std::map<int, std::uint64_t> next_occurrence;
  };

  mutable std::mutex mutex_;
  std::uint64_t seed_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::vector<Injection> log_;
};

namespace detail {
inline std::atomic<Plan*>& active_slot() {
  static std::atomic<Plan*> slot{nullptr};
  return slot;
}
}  // namespace detail

/// The armed plan, or nullptr (the common case: zero faults).
inline Plan* active_plan() {
  return detail::active_slot().load(std::memory_order_acquire);
}

/// Arms a plan for the current scope; restores the previous plan (usually
/// none) on destruction. The plan must outlive the scope and must not be
/// reconfigured while armed.
class ScopedPlan {
 public:
  explicit ScopedPlan(Plan& plan)
      : previous_(detail::active_slot().exchange(&plan,
                                                std::memory_order_acq_rel)) {}

  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

  ~ScopedPlan() {
    detail::active_slot().store(previous_, std::memory_order_release);
  }

 private:
  Plan* previous_;
};

/// Free-function form of the fault-point query (null-plan fast path).
inline bool should_inject(std::string_view site) {
  Plan* plan = active_plan();
  return plan != nullptr && plan->should_inject(site);
}

/// Free-function form of the parameter lookup.
inline std::uint64_t site_param(std::string_view site, std::uint64_t fallback) {
  const Plan* plan = active_plan();
  return plan != nullptr ? plan->param(site, fallback) : fallback;
}

/// Deterministic jitter in [0, bound) from the armed plan's seed (seed 0
/// when no plan is armed, so the sequence is still reproducible).
inline std::uint64_t jitter(std::string_view name, std::uint64_t attempt,
                            std::uint64_t bound) {
  const Plan* plan = active_plan();
  return Plan::jitter_for(plan != nullptr ? plan->seed() : 0, name, attempt,
                          bound);
}

}  // namespace cosmo::faults

// Fault-point macros. Injection sites in library code use these, never the
// free functions directly.

/// True when the armed plan injects a fault at `site` for this query.
#define COSMO_FAULT_POINT(site) (::cosmo::faults::should_inject(site))

/// Integer parameter attached to `site` in the armed plan, else `fallback`.
#define COSMO_FAULT_PARAM(site, fallback) \
  (::cosmo::faults::site_param(site, (fallback)))
