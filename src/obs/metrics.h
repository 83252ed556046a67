// Metrics registry — named counters, the one metric kind.
//
// Counters shard by SPMD rank (obs/context.h): each rank-thread accumulates
// into its own atomic slot, so both the process total and any single rank's
// contribution are recoverable. That mirrors MPI reality — every rank owns
// its local count and cross-rank views are built with communicator
// reductions (obs/aggregate.h) — while staying contention-free in this
// repo's ranks-as-threads runtime.
//
// Lookup is by name under a mutex; hot paths cache the returned reference
// in a function-local static (see COSMO_COUNT in obs/obs.h), so the steady
// state is one relaxed atomic add per event.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/context.h"
#include "util/table.h"

namespace cosmo::obs {

namespace detail {
/// Counter slots: slot 0 for rank-less threads, slots 1..64 for ranks
/// (ranks beyond 63 wrap — totals stay exact, per-rank views merge).
inline constexpr std::size_t kRankSlots = 65;

inline std::size_t slot_for_rank(int rank) {
  return rank < 0 ? 0 : 1 + static_cast<std::size_t>(rank) % (kRankSlots - 1);
}

inline std::size_t current_slot() { return slot_for_rank(current_rank()); }
}  // namespace detail

/// Monotonic counter, sharded by rank.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    slots_[detail::current_slot()].fetch_add(n, std::memory_order_relaxed);
  }

  /// Process-wide total across every rank (and rank-less threads).
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& s : slots_) t += s.load(std::memory_order_relaxed);
    return t;
  }

  /// One rank's contribution (rank -1: all rank-less threads).
  std::uint64_t local(int rank) const {
    return slots_[detail::slot_for_rank(rank)].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, detail::kRankSlots> slots_{};
};

/// Process-wide registry of named counters. References returned are stable
/// for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance() {
    static MetricsRegistry registry;
    return registry;
  }

  Counter& counter(const std::string& name) {
    std::lock_guard lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }

  bool has_counter(const std::string& name) const {
    std::lock_guard lock(mutex_);
    return counters_.count(name) != 0;
  }

  std::vector<std::string> counter_names() const {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(counters_.size());
    for (const auto& [name, _] : counters_) out.push_back(name);
    return out;  // std::map iteration: already sorted
  }

  /// Zeroes every counter (names survive). For tests/benches.
  void reset() {
    std::lock_guard lock(mutex_);
    for (auto& [_, c] : counters_) c->reset();
  }

  /// Plaintext dump of every counter's process total.
  void print(std::ostream& os) const {
    TextTable t({"counter", "total"});
    {
      std::lock_guard lock(mutex_);
      for (const auto& [name, c] : counters_)
        t.add_row({name, std::to_string(c->total())});
    }
    t.print(os);
  }

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace cosmo::obs
