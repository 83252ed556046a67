// Work-stealing task-group scheduler backing the ThreadPool dpp backend.
//
// PISTON compiles one algorithm source to several Thrust backends (CUDA,
// OpenMP, TBB). Our equivalent keeps a process-wide pool of workers; the
// data-parallel primitives dispatch index ranges onto it. A pool (rather
// than thread-per-call) keeps per-primitive overhead low enough that the
// fine-grained primitives in the center finder stay profitable.
//
// Scheduler design (the redesign the dpp.dispatch_wait data motivated):
//
//   * Every parallel_for creates a TaskGroup: the iteration space [0, n)
//     cut into fixed-size chunks (`grain` items each), claimed dynamically
//     through one atomic cursor. Dynamic chunking means a load-imbalanced
//     kernel (subhalo finding, the one monster halo in the center
//     finder) no longer pays the static one-chunk-per-worker split:
//     fast workers just claim more chunks.
//   * Grain 0 asks for the auto grain: a constant kChunksPerWorker chunks
//     per worker, so a dispatch's chunking depends only on n and the pool
//     size, never on the dispatches that ran before it.
//   * Groups are pushed onto per-worker deques. A worker prefers its own
//     deque and STEALS from siblings when empty ("dpp.steals"), so any
//     number of concurrent parallel_for calls — different SPMD ranks, or
//     nested inside a kernel — make progress simultaneously. There is no
//     global dispatch lock anywhere on this path.
//   * The dispatching thread help-executes: it claims chunks of its own
//     group like any worker, then blocks only for chunks still in flight
//     on other threads. "dpp.dispatch_wait_us" now measures exactly that
//     tail (steal/straggler latency), not lock queueing as before the
//     redesign.
//   * Re-entrancy is safe by construction: a parallel_for issued from
//     inside a worker (or from a caller already helping) submits a new
//     group and help-executes it. Blocking only ever waits on chunks that
//     are actively running on other threads, so nested dispatches cannot
//     deadlock (the old design's single dispatch mutex did).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/timer.h"

namespace cosmo::dpp {

/// Fixed-size worker pool executing blocking parallel-for dispatches as
/// work-stealing task groups.
///
/// Thread-safe for concurrent parallel_for calls from any number of
/// threads, including from inside a dispatched function (nested
/// parallelism): concurrent groups share the workers chunk-by-chunk instead
/// of queueing behind each other.
class ThreadPool {
 public:
  /// Process-wide pool, sized to the hardware concurrency (at least 2 so the
  /// parallel code paths are genuinely exercised even on 1-core hosts).
  static ThreadPool& instance() {
    static ThreadPool pool(default_workers());
    return pool;
  }

  static std::size_t default_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 2 ? hw : 2;
  }

  explicit ThreadPool(std::size_t workers) : queues_(workers) {
    for (auto& q : queues_) q = std::make_unique<WorkerQueue>();
    threads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard lock(idle_mutex_);
      stop_ = true;
    }
    idle_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::size_t workers() const { return threads_.size(); }

  /// True when called from one of this process's pool worker threads.
  static bool in_worker() { return tls_worker_id() >= 0; }

  /// Runs fn(begin, end) over [0, n) split into dynamic chunks of `grain`
  /// items (grain 0 = auto: ~kChunksPerWorker chunks per worker); blocks
  /// until all chunks complete. fn must be safe to run concurrently on
  /// disjoint ranges. Safe to call concurrently from many threads and
  /// re-entrantly from inside a dispatched fn.
  ///
  /// If fn throws, the first exception (in completion order) is captured and
  /// rethrown here after the whole group drains — fail-fast guards inside
  /// dispatched kernels (e.g. the PM deposit's beyond-ghost check) surface
  /// as ordinary exceptions at the dispatch site instead of terminating the
  /// process from a worker thread. Remaining chunks still run.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t nw = workers();
    // Too small to amortize a dispatch: run inline. An explicit grain >= n
    // also means the caller asked for a single chunk.
    if ((grain == 0 && n < 2 * nw) || grain >= n) {
      COSMO_COUNT("dpp.inline_runs", 1);
      fn(0, n);
      return;
    }
    if (grain == 0) grain = auto_grain(n, nw);
    auto group = std::make_shared<TaskGroup>();
    group->fn = &fn;
    group->n = n;
    group->grain = grain;
    group->num_chunks = (n + grain - 1) / grain;
    group->unfinished.store(group->num_chunks, std::memory_order_relaxed);
    COSMO_COUNT("dpp.dispatches", 1);
    COSMO_COUNT("dpp.dispatch_items", n);
    COSMO_COUNT("dpp.dispatch_chunks", group->num_chunks);
    if (in_worker()) COSMO_COUNT("dpp.nested_dispatches", 1);
    const std::size_t home = submit(group);
    // Help-execute our own group: the dispatching thread is a full
    // participant, so a dispatch always makes progress even when every
    // worker is busy with other ranks' groups.
    run_chunks(*group, /*helping=*/true);
    double waited_s = 0.0;
    if (group->unfinished.load(std::memory_order_acquire) != 0) {
      WallTimer wait_timer;
      std::unique_lock lock(group->mutex);
      group->done_cv.wait(lock, [&] { return group->done; });
      waited_s = wait_timer.seconds();
    }
    COSMO_COUNT("dpp.dispatch_wait_us",
                static_cast<std::uint64_t>(waited_s * 1e6));
    retire(home, group.get());
    // Visibility: the error write happened before the final unfinished
    // decrement (acq_rel), which we observed either directly or through the
    // mutex-protected done flag.
    if (group->error) std::rethrow_exception(group->error);
  }

 private:
  struct TaskGroup {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> cursor{0};      // next chunk index to claim
    std::atomic<std::size_t> unfinished{0};  // chunks not yet completed
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::exception_ptr error;  // first chunk exception; guarded by mutex

    bool exhausted() const {
      return cursor.load(std::memory_order_relaxed) >= num_chunks;
    }
  };

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::shared_ptr<TaskGroup>> groups;
  };

  /// Claimable chunks per worker for grain-0 dispatches: slack for dynamic
  /// balancing, while the atomic claim stays negligible per chunk. 32 is the
  /// fixed point of the steal-aware feedback loop that used to tune this
  /// count (4 per worker, doubled up to three times while under 1/32 of a
  /// 512-chunk window was stolen): traced on every cosmobench workload, every
  /// process reached 32 within its first ~6,300 chunks and ended there
  /// (EXPERIMENTS.md, "Auto grain saturation"). Explicit grains are used as
  /// given, and the deterministic block decompositions in primitives.h never
  /// consult this constant, so it moves no floating-point sum.
  static constexpr std::size_t kChunksPerWorker = 32;

  static std::size_t auto_grain(std::size_t n, std::size_t nw) {
    const std::size_t target = kChunksPerWorker * nw;
    const std::size_t g = (n + target - 1) / target;
    return g > 0 ? g : 1;
  }

  static int& tls_worker_id() {
    static thread_local int id = -1;
    return id;
  }

  /// Publishes a group: onto the submitting worker's own deque (nested
  /// dispatch keeps locality) or round-robin across workers otherwise.
  /// Returns the queue index it landed on.
  std::size_t submit(const std::shared_ptr<TaskGroup>& group) {
    const int self = tls_worker_id();
    const std::size_t qi =
        self >= 0 ? static_cast<std::size_t>(self)
                  : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                        queues_.size();
    {
      std::lock_guard lock(queues_[qi]->mutex);
      queues_[qi]->groups.push_back(group);
    }
    {
      std::lock_guard lock(idle_mutex_);
      ++epoch_;
    }
    idle_cv_.notify_all();
    return qi;
  }

  /// Removes a completed group from the deque it was submitted to (workers
  /// also drop exhausted groups lazily while scanning).
  void retire(std::size_t qi, const TaskGroup* group) {
    std::lock_guard lock(queues_[qi]->mutex);
    auto& g = queues_[qi]->groups;
    for (auto it = g.begin(); it != g.end(); ++it) {
      if (it->get() == group) {
        g.erase(it);
        return;
      }
    }
  }

  /// Claims and runs chunks of `group` until its cursor is exhausted.
  void run_chunks(TaskGroup& group, bool helping) {
    for (;;) {
      const std::size_t c =
          group.cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= group.num_chunks) return;
      const std::size_t lo = c * group.grain;
      const std::size_t hi =
          lo + group.grain < group.n ? lo + group.grain : group.n;
      try {
        (*group.fn)(lo, hi);
      } catch (...) {
        std::lock_guard lock(group.mutex);
        if (!group.error) group.error = std::current_exception();
      }
      COSMO_COUNT("dpp.chunks_run", 1);
      if (helping) COSMO_COUNT("dpp.chunks_helped", 1);
      // acq_rel: our fn's writes release into the counter chain; the thread
      // observing 0 (or the waiter woken below) acquires them all.
      if (group.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(group.mutex);
        group.done = true;
        group.done_cv.notify_all();
      }
    }
  }

  /// Finds a group with claimable chunks: own deque first (front = oldest:
  /// finish predecessors before starting new work), then steal from
  /// siblings. Exhausted groups encountered while scanning are dropped.
  std::shared_ptr<TaskGroup> find_group(std::size_t self) {
    const std::size_t nq = queues_.size();
    for (std::size_t pass = 0; pass < nq; ++pass) {
      const std::size_t qi = (self + pass) % nq;
      std::lock_guard lock(queues_[qi]->mutex);
      auto& g = queues_[qi]->groups;
      while (!g.empty() && g.front()->exhausted()) g.pop_front();
      if (!g.empty()) {
        if (pass != 0) COSMO_COUNT("dpp.steals", 1);
        return g.front();
      }
    }
    return nullptr;
  }

  void worker_loop(std::size_t worker_id) {
    tls_worker_id() = static_cast<int>(worker_id);
    std::uint64_t seen_epoch = 0;
    for (;;) {
      if (auto group = find_group(worker_id)) {
        run_chunks(*group, /*helping=*/false);
        continue;
      }
      std::unique_lock lock(idle_mutex_);
      if (stop_) return;
      if (epoch_ == seen_epoch) {
        idle_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
      }
      seen_epoch = epoch_;
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> next_queue_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace cosmo::dpp
