// Bounded retry with doubling backoff and deterministic jitter.
//
// Transient failures — a staging put that hit a full device, a Listener
// submit that bounced, a Level 2 write interrupted mid-file — are absorbed by
// retrying a bounded number of times with a backoff that doubles per attempt.
// Jitter is drawn from the armed fault plan's seed (faults::jitter), not a
// wall-clock RNG, so a failing run replays with the exact same backoff
// schedule. All attempts/successes/exhaustions are counted in the metrics
// registry (`retry.*`) so tests can assert recovery behavior, not just
// outcomes.
#pragma once

#include <chrono>
#include <cmath>
#include <string_view>
#include <thread>

#include "faults/faults.h"
#include "obs/obs.h"
#include "util/error.h"

namespace cosmo::util {

/// Retry policy knobs. The backoff doubles after each failed attempt.
struct RetryPolicy {
  int max_attempts = 3;
  std::chrono::milliseconds initial_backoff{1};
  /// Ceiling on the doubling term (jitter rides on top).
  std::chrono::milliseconds max_backoff{64};
  /// Maximum deterministic jitter added to each backoff.
  std::chrono::milliseconds max_jitter{0};
};

/// Outcome of a Retry::run call.
struct RetryResult {
  bool success = false;
  int attempts = 0;
};

class Retry {
 public:
  explicit Retry(RetryPolicy policy = {}) : policy_(policy) {
    COSMO_REQUIRE(policy_.max_attempts >= 0, "negative attempt bound");
  }

  /// Backoff applied after 0-based `attempt` fails: initial_backoff doubled
  /// `attempt` times and clamped to max_backoff, plus deterministic jitter
  /// keyed on (`name`, attempt). Pure given the armed plan's seed — exposed
  /// so tests can assert the exact schedule a failing run used.
  std::chrono::milliseconds backoff_after(std::string_view name,
                                          int attempt) const {
    double ms = static_cast<double>(policy_.initial_backoff.count()) *
                std::pow(2.0, attempt);
    ms = std::min(ms, static_cast<double>(policy_.max_backoff.count()));
    const std::uint64_t jitter = faults::jitter(
        name, static_cast<std::uint64_t>(attempt),
        static_cast<std::uint64_t>(policy_.max_jitter.count()) + 1);
    return std::chrono::milliseconds(static_cast<std::int64_t>(ms) +
                                     static_cast<std::int64_t>(jitter));
  }

  /// Runs `fn` (returning true on success) up to max_attempts times. A
  /// thrown exception counts as a failed attempt; other than that, failures
  /// are signalled by returning false. `name` labels the operation for
  /// jitter derivation and metrics.
  template <typename F>
  RetryResult run(std::string_view name, F&& fn) {
    RetryResult result;
    for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
      ++result.attempts;
      COSMO_COUNT("retry.attempts", 1);
      bool ok = false;
      try {
        ok = fn();
      } catch (const std::exception&) {
        ok = false;
      }
      if (ok) {
        result.success = true;
        COSMO_COUNT("retry.successes", 1);
        return result;
      }
      if (attempt + 1 < policy_.max_attempts) {
        const auto backoff = backoff_after(name, attempt);
        COSMO_COUNT("retry.backoff_ms",
                    static_cast<std::uint64_t>(backoff.count()));
        if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      }
    }
    COSMO_COUNT("retry.exhausted", 1);
    return result;
  }

 private:
  RetryPolicy policy_;
};

}  // namespace cosmo::util
