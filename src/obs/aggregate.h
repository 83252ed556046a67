// Cross-rank counter aggregation via communicator reductions.
//
// Separated from obs/metrics.h because it depends on comm::Comm (and comm
// itself is instrumented with obs, so obs core must stay below comm in the
// dependency order: util → obs → dpp → comm → ...).
//
// Every function here is COLLECTIVE: all ranks of the communicator must
// call it in matching order, exactly like the reductions it is built on.
// Each rank contributes its local shard (Counter::local) — the same
// contract MPI codes follow, where cross-rank totals only exist after an
// explicit reduction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "obs/metrics.h"

namespace cosmo::obs {

struct CounterAggregate {
  std::uint64_t sum = 0;  ///< total over ranks
  std::uint64_t min = 0;  ///< lightest rank
  std::uint64_t max = 0;  ///< heaviest rank — the imbalance signal
};

/// Reduces one counter's per-rank contributions. Visible on all ranks.
inline CounterAggregate aggregate_counter(comm::Comm& c,
                                          const std::string& name) {
  const std::uint64_t local =
      MetricsRegistry::instance().counter(name).local(c.rank());
  CounterAggregate a;
  a.sum = c.allreduce_value<std::uint64_t>(local, comm::ReduceOp::Sum);
  a.min = c.allreduce_value<std::uint64_t>(local, comm::ReduceOp::Min);
  a.max = c.allreduce_value<std::uint64_t>(local, comm::ReduceOp::Max);
  return a;
}

struct NamedCounterAggregate {
  std::string name;
  CounterAggregate agg;
};

/// Reduces every counter registered at the moment rank 0 snapshots the
/// registry. The name list is broadcast from rank 0 rather than read
/// per-rank: the collectives below are themselves instrumented and
/// register counters lazily (comm.reduce, comm.msgs_sent, ...), so
/// per-rank snapshots taken microseconds apart can disagree — and a
/// disagreement means mismatched collective call counts, i.e. deadlock.
inline std::vector<NamedCounterAggregate> aggregate_all_counters(
    comm::Comm& c) {
  std::vector<char> joined;
  if (c.rank() == 0) {
    for (const auto& name : MetricsRegistry::instance().counter_names()) {
      joined.insert(joined.end(), name.begin(), name.end());
      joined.push_back('\n');
    }
  }
  c.bcast(joined, 0);
  std::vector<NamedCounterAggregate> out;
  std::string name;
  for (const char ch : joined) {
    if (ch == '\n') {
      out.push_back({name, aggregate_counter(c, name)});
      name.clear();
    } else {
      name.push_back(ch);
    }
  }
  return out;
}

}  // namespace cosmo::obs
