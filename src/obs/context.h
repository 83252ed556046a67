// Thread-local observability context: which SPMD rank this thread is.
//
// The SPMD runtime runs ranks as threads, so rank identity is thread
// identity. The runtime (comm::run_spmd) installs a RankScope at rank-thread
// entry; spans and metric shards read it so every recorded event carries the
// rank that produced it — the basis of the paper's per-node ledgers. Threads
// outside any rank (the main thread, pool workers, the Listener) report
// rank -1.
#pragma once

namespace cosmo::obs {

namespace detail {
inline int& thread_rank_slot() {
  thread_local int rank = -1;
  return rank;
}
}  // namespace detail

/// Rank of the calling thread, or -1 outside any SPMD rank.
inline int current_rank() { return detail::thread_rank_slot(); }

inline void set_current_rank(int rank) { detail::thread_rank_slot() = rank; }

/// RAII rank binding for one thread (restores the previous value).
class RankScope {
 public:
  explicit RankScope(int rank) : prev_(current_rank()) {
    set_current_rank(rank);
  }
  ~RankScope() { set_current_rank(prev_); }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  int prev_;
};

}  // namespace cosmo::obs
