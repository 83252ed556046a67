// SPMD message-passing runtime — the MPI stand-in.
//
// The distributed analysis algorithms (parallel FOF merge, particle
// redistribution, distributed FFT transposes) are written against this
// communicator exactly as they would be against MPI: ranks execute the same
// program, exchange typed messages, and call collectives in matching order.
// Here a "rank" is a thread and the transport is an in-process mailbox, but
// the semantics mirror MPI's guarantees:
//   * point-to-point messages between a (source, tag) pair are
//     non-overtaking (FIFO),
//   * collectives must be invoked in the same order by every rank,
//   * recv blocks until a matching message arrives.
// Collectives are layered on point-to-point sends with reserved negative
// tags, so the whole stack is exercised through one code path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "faults/faults.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/timer.h"

namespace cosmo::comm {

namespace detail {

struct Message {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// One mailbox per destination rank; recv matches on (source, tag) and
/// takes the earliest match to preserve non-overtaking order.
class Mailbox {
 public:
  void put(Message msg) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_all();
  }

  Message take(int source, int tag) {
    std::unique_lock lock(mutex_);
    for (;;) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          Message msg = std::move(*it);
          queue_.erase(it);
          return msg;
        }
      }
      cv_.wait(lock);
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

}  // namespace detail

/// Shared state for one SPMD world: the mailboxes of all ranks.
class World {
 public:
  explicit World(int nranks) : boxes_(static_cast<std::size_t>(nranks)) {
    COSMO_REQUIRE(nranks > 0, "world needs at least one rank");
    for (auto& b : boxes_) b = std::make_unique<detail::Mailbox>();
  }

  int size() const { return static_cast<int>(boxes_.size()); }
  detail::Mailbox& box(int rank) { return *boxes_[static_cast<std::size_t>(rank)]; }

 private:
  std::vector<std::unique_ptr<detail::Mailbox>> boxes_;
};

/// Reduction operators for reduce/allreduce/scan.
enum class ReduceOp { Sum, Min, Max };

/// Per-rank communicator handle. Not thread-safe within one rank (as with
/// MPI, a rank issues its communication calls sequentially).
class Comm {
 public:
  /// Retransmission budget when a payload delivery is dropped (fault
  /// injection site "comm.send"; each retry re-checks "comm.redeliver").
  static constexpr int kMaxRedeliveries = 3;

  Comm(World& world, int rank) : world_(&world), rank_(rank) {
    COSMO_REQUIRE(rank >= 0 && rank < world.size(), "rank out of range");
  }

  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  // ---- point-to-point ----------------------------------------------------

  /// Sends a typed buffer; T must be trivially copyable. Non-blocking in the
  /// MPI "buffered send" sense: the payload is copied into the mailbox.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    COSMO_REQUIRE(tag >= 0, "negative tags are reserved for collectives");
    send_raw(dest, tag, data);
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  /// Blocks until a message with matching (source, tag) arrives.
  template <typename T>
  std::vector<T> recv(int source, int tag) {
    COSMO_REQUIRE(tag >= 0, "negative tags are reserved for collectives");
    return recv_raw<T>(source, tag);
  }

  template <typename T>
  T recv_value(int source, int tag) {
    auto v = recv<T>(source, tag);
    COSMO_REQUIRE(v.size() == 1, "recv_value expected a single element");
    return v[0];
  }

  // ---- collectives (must be called in matching order on every rank) ------

  void barrier() {
    COSMO_COUNT("comm.barrier", 1);
    // Linear fan-in to rank 0, then fan-out. O(P) messages, trivially correct.
    std::uint8_t token = 1;
    if (rank_ == 0) {
      for (int r = 1; r < size(); ++r) recv_raw<std::uint8_t>(r, kTagBarrierIn);
      for (int r = 1; r < size(); ++r)
        send_raw(r, kTagBarrierOut, std::span<const std::uint8_t>(&token, 1));
    } else {
      send_raw(0, kTagBarrierIn, std::span<const std::uint8_t>(&token, 1));
      recv_raw<std::uint8_t>(0, kTagBarrierOut);
    }
  }

  /// Broadcasts root's buffer to all ranks (buffer is resized on receivers).
  template <typename T>
  void bcast(std::vector<T>& data, int root = 0) {
    COSMO_COUNT("comm.bcast", 1);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root) send_raw(r, kTagBcast, std::span<const T>(data));
    } else {
      data = recv_raw<T>(root, kTagBcast);
    }
  }

  /// Element-wise reduction of equal-length vectors onto root.
  template <typename T>
  std::vector<T> reduce(std::span<const T> local, ReduceOp op, int root = 0) {
    COSMO_COUNT("comm.reduce", 1);
    if (rank_ != root) {
      send_raw(root, kTagReduce, local);
      return {};
    }
    std::vector<T> acc(local.begin(), local.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      auto other = recv_raw<T>(r, kTagReduce);
      COSMO_REQUIRE(other.size() == acc.size(), "reduce length mismatch");
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = combine(acc[i], other[i], op);
    }
    return acc;
  }

  /// Element-wise reduction visible on all ranks.
  template <typename T>
  std::vector<T> allreduce(std::span<const T> local, ReduceOp op) {
    std::vector<T> result = reduce(local, op, 0);
    bcast(result, 0);
    return result;
  }

  /// Scalar convenience overload.
  template <typename T>
  T allreduce_value(T value, ReduceOp op) {
    return allreduce(std::span<const T>(&value, 1), op)[0];
  }

  /// Runs the rank-local step `fn` (it must not call a collective), then
  /// agrees on its outcome with an allreduce(Max): if it threw on any rank,
  /// every rank throws cosmo::Error together. run_spmd joins all ranks
  /// before rethrowing, so a rank that bailed out alone would leave its
  /// peers blocked forever in their next collective.
  template <typename F>
  void agree_or_throw(const std::string& what, F&& fn) {
    std::string error;
    try {
      fn();
    } catch (const std::exception& e) {
      error = "rank " + std::to_string(rank_) + ": " + e.what();
    } catch (...) {
      error = "rank " + std::to_string(rank_) + ": unknown exception";
    }
    const int failed_rank =
        allreduce_value(error.empty() ? -1 : rank_, ReduceOp::Max);
    if (failed_rank >= 0)
      throw Error(what + " failed on " +
                  (error.empty() ? "rank " + std::to_string(failed_rank)
                                 : error));
  }

  /// Gathers variable-length buffers onto root, concatenated in rank order.
  /// `counts` (root only) receives each rank's element count.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root = 0,
                         std::vector<std::size_t>* counts = nullptr) {
    COSMO_COUNT("comm.gatherv", 1);
    if (rank_ != root) {
      send_raw(root, kTagGather, local);
      return {};
    }
    std::vector<T> all;
    if (counts) counts->assign(static_cast<std::size_t>(size()), 0);
    for (int r = 0; r < size(); ++r) {
      std::vector<T> part;
      if (r == root)
        part.assign(local.begin(), local.end());
      else
        part = recv_raw<T>(r, kTagGather);
      if (counts) (*counts)[static_cast<std::size_t>(r)] = part.size();
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  /// Allgather of variable-length buffers, concatenated in rank order.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::size_t>* counts = nullptr) {
    std::vector<std::size_t> root_counts;
    std::vector<T> all = gatherv(local, 0, &root_counts);
    bcast(all, 0);
    if (counts) {
      *counts = std::move(root_counts);
      bcast(*counts, 0);
    }
    return all;
  }

  /// Allgather of one scalar per rank.
  template <typename T>
  std::vector<T> allgather_value(T value) {
    return allgatherv(std::span<const T>(&value, 1));
  }

  /// Personalized all-to-all: send[dest] goes to rank dest; returns one
  /// buffer per source rank. The particle exchange and the PM ghost planes
  /// run on it; it is exchange() copying each block in.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send) {
    COSMO_REQUIRE(static_cast<int>(send.size()) == size(),
                  "alltoallv needs one buffer per destination rank");
    std::vector<std::vector<T>> recv(static_cast<std::size_t>(size()));
    exchange<T>(
        [&](int dest) {
          return std::span<const T>(send[static_cast<std::size_t>(dest)]);
        },
        [&](int src, std::span<const T> block) {
          auto& buf = recv[static_cast<std::size_t>(src)];
          buf.assign(block.begin(), block.end());
        });
    return recv;
  }

  /// The one all-to-all loop, under alltoallv, the FFT transposes and the
  /// FOF overload exchange.
  /// pack(dest) returns the std::span<const T> for rank dest; it is copied
  /// into the message before the next pack, so every pack may refill one
  /// buffer. Destinations are staggered so mailboxes fill evenly, self
  /// last. unpack(src, block) then runs once per source: first on the self
  /// block as pack returned it, then on each peer's block in source order,
  /// read in place from the received message. Every pack has run before
  /// the first unpack, so an unpack may overwrite what the packs read.
  template <typename T, typename Pack, typename Unpack>
  void exchange(Pack&& pack, Unpack&& unpack) {
    COSMO_COUNT("comm.alltoallv", 1);
    const int P = size();
    for (int step = 1; step < P; ++step) {
      const int dest = (rank_ + step) % P;
      send_raw(dest, kTagAllToAll, std::span<const T>(pack(dest)));
    }
    unpack(rank_, std::span<const T>(pack(rank_)));
    for (int src = 0; src < P; ++src) {
      if (src == rank_) continue;
      const detail::Message msg = take(src, kTagAllToAll);
      unpack(src, payload_as<T>(msg));
    }
  }

  /// Inclusive scan of a scalar across ranks (rank r gets op over ranks 0..r).
  template <typename T>
  T scan_value(T value, ReduceOp op) {
    COSMO_COUNT("comm.scan", 1);
    // Linear chain: receive prefix from rank-1, combine, forward.
    T acc = value;
    if (rank_ > 0) {
      const T prefix = recv_raw<T>(rank_ - 1, kTagScan)[0];
      acc = combine(prefix, value, op);
    }
    if (rank_ + 1 < size())
      send_raw(rank_ + 1, kTagScan, std::span<const T>(&acc, 1));
    return acc;
  }

 private:
  static constexpr int kTagBarrierIn = -1;
  static constexpr int kTagBarrierOut = -2;
  static constexpr int kTagBcast = -3;
  static constexpr int kTagReduce = -4;
  static constexpr int kTagGather = -5;
  static constexpr int kTagAllToAll = -6;
  static constexpr int kTagScan = -7;

  template <typename T>
  static T combine(T a, T b, ReduceOp op) {
    switch (op) {
      case ReduceOp::Sum:
        return a + b;
      case ReduceOp::Min:
        return b < a ? b : a;
      case ReduceOp::Max:
        return a < b ? b : a;
    }
    return a;
  }

  template <typename T>
  void send_raw(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    COSMO_REQUIRE(dest >= 0 && dest < size(), "destination rank out of range");
    COSMO_COUNT("comm.msgs_sent", 1);
    COSMO_COUNT("comm.bytes_sent", data.size_bytes());
    if (COSMO_FAULT_POINT("comm.delay")) {
      // Congested link: the payload arrives, just late.
      COSMO_COUNT("comm.delayed_sends", 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(COSMO_FAULT_PARAM("comm.delay", 1)));
    }
    // A dropped first delivery is retransmitted up to kMaxRedeliveries
    // times; each retransmission can itself be dropped ("comm.redeliver").
    // Exhausting the redelivery budget is a hard transport failure.
    bool delivered = !COSMO_FAULT_POINT("comm.send");
    if (!delivered) {
      COSMO_COUNT("comm.delivery_drops", 1);
      for (int redelivery = 0; redelivery < kMaxRedeliveries; ++redelivery) {
        COSMO_COUNT("comm.redeliveries", 1);
        if (!COSMO_FAULT_POINT("comm.redeliver")) {
          delivered = true;
          break;
        }
        COSMO_COUNT("comm.delivery_drops", 1);
      }
    }
    COSMO_REQUIRE(delivered, "payload delivery failed after " +
                                 std::to_string(kMaxRedeliveries) +
                                 " redeliveries");
    detail::Message msg;
    msg.source = rank_;
    msg.tag = tag;
    const auto bytes = std::as_bytes(data);
    msg.payload.assign(bytes.begin(), bytes.end());
    world_->box(dest).put(std::move(msg));
  }

  template <typename T>
  std::vector<T> recv_raw(int source, int tag) {
    const detail::Message msg = take(source, tag);
    const std::span<const T> data = payload_as<T>(msg);
    return std::vector<T>(data.begin(), data.end());
  }

  /// Blocks until a message with matching (source, tag) arrives. Every
  /// receive waits here, so comm.recv_wait_us times every wait.
  detail::Message take(int source, int tag) {
    COSMO_REQUIRE(source >= 0 && source < size(), "source rank out of range");
#ifndef COSMO_OBS_DISABLED
    WallTimer wait_timer;
#endif
    detail::Message msg = world_->box(rank_).take(source, tag);
#ifndef COSMO_OBS_DISABLED
    COSMO_COUNT("comm.recv_wait_us",
                static_cast<std::uint64_t>(wait_timer.seconds() * 1e6));
    COSMO_COUNT("comm.msgs_recv", 1);
    COSMO_COUNT("comm.bytes_recv", msg.payload.size());
#endif
    return msg;
  }

  /// A message's payload read in place as elements of T. Its storage is a
  /// std::byte array from operator new, aligned for any such T, which
  /// implicitly creates the T objects whose bytes send_raw copied in;
  /// std::launder reaches them.
  template <typename T>
  static std::span<const T> payload_as(const detail::Message& msg) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    COSMO_REQUIRE(msg.payload.size() % sizeof(T) == 0,
                  "message size not a multiple of element size");
    if (msg.payload.empty()) return {};
    return {std::launder(reinterpret_cast<const T*>(msg.payload.data())),
            msg.payload.size() / sizeof(T)};
  }

  World* world_;
  int rank_;
};

/// Runs `body` as an SPMD program on `nranks` rank-threads and joins them.
/// The first exception thrown by any rank is rethrown to the caller.
inline void run_spmd(int nranks, const std::function<void(Comm&)>& body) {
  World world(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &body, &errors, r] {
      // Bind this thread's rank for the observability layer: spans and
      // metric shards recorded anywhere below carry the right rank.
      obs::RankScope rank_scope(r);
      try {
        Comm comm(world, r);
        COSMO_TRACE_SPAN("spmd.rank");
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace cosmo::comm
