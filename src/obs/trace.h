// Span tracing — the per-phase, per-rank timing substrate.
//
// The paper's Tables 2–4 are per-phase wall-clock ledgers with per-node
// (here: per-rank) resolution. This tracer records RAII scoped spans into
// per-thread ring buffers (bounded memory, oldest spans dropped under
// pressure) and exports them two ways:
//   * Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev),
//     one track per rank thread, nesting preserved;
//   * a plaintext summary table (count / total / mean / max per span name),
//     the shape of the paper's phase tables.
// Spans carry the producing rank (via obs/context.h), a thread index, a
// nesting depth, and an optional category (the workflow variant for phase
// spans). TimedSpan doubles as the workflow phase timer: finish() ends the
// span and returns its duration, so the ledger the workflow reports and the
// span the tracer stores are the *same measurement*.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.h"
#include "util/table.h"
#include "util/timer.h"

namespace cosmo::obs {

/// Instrumentation is always compiled in. Kept for cosmobench's
/// `obs_disabled` metadata field, which reads it.
inline constexpr bool kObsEnabled = true;

/// One completed span. Times are microseconds since the process epoch.
struct Span {
  std::string name;
  std::string cat;          ///< optional category (e.g. workflow variant)
  double start_us = 0.0;
  double end_us = 0.0;
  int rank = -1;            ///< SPMD rank of the producing thread (-1: none)
  int tid = 0;              ///< tracer-assigned thread index
  int depth = 0;            ///< nesting depth within the thread

  double seconds() const { return (end_us - start_us) * 1e-6; }
};

/// Per-name aggregate for the plaintext summary.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
  double mean_s() const {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
};

namespace detail {

inline std::chrono::steady_clock::time_point process_epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

/// Fixed-capacity span store owned by one thread; oldest entries are
/// overwritten when full so a long run cannot exhaust memory.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity, int tid)
      : capacity_(capacity ? capacity : 1), tid_(tid) {}

  int tid() const { return tid_; }

  void push(Span span) {
    std::lock_guard lock(mutex_);
    if (spans_.size() < capacity_) {
      spans_.push_back(std::move(span));
    } else {
      spans_[head_] = std::move(span);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  void append_to(std::vector<Span>& out) const {
    std::lock_guard lock(mutex_);
    out.insert(out.end(), spans_.begin(), spans_.end());
  }

  std::uint64_t dropped() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    spans_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  int tid_;
  std::vector<Span> spans_;
  std::size_t head_ = 0;         ///< oldest entry once the ring is full
  std::uint64_t dropped_ = 0;
};

/// Minimal JSON string escaping (span names are code-controlled, but keep
/// the export valid for any input).
inline void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace detail

/// Process-wide span collector. Thread-safe; rank threads write into their
/// own rings, export merges all rings.
class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 65536;

  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Ring capacity for threads that have not recorded a span yet (existing
  /// rings keep their size; spans already stored are never reallocated).
  void set_ring_capacity(std::size_t capacity) {
    std::lock_guard lock(mutex_);
    ring_capacity_ = capacity ? capacity : 1;
  }

  /// The calling thread's ring, created and registered on first use.
  detail::SpanRing& thread_ring() {
    thread_local std::shared_ptr<detail::SpanRing> ring = register_ring();
    return *ring;
  }

  /// All recorded spans, merged and sorted by start time.
  std::vector<Span> snapshot() const {
    std::vector<Span> all;
    {
      std::lock_guard lock(mutex_);
      for (const auto& r : rings_) r->append_to(all);
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      return a.start_us < b.start_us;
    });
    return all;
  }

  /// Total spans dropped to ring overflow across all threads.
  std::uint64_t dropped() const {
    std::lock_guard lock(mutex_);
    std::uint64_t d = 0;
    for (const auto& r : rings_) d += r->dropped();
    return d;
  }

  /// Discards every recorded span (thread registrations survive).
  void clear() {
    std::lock_guard lock(mutex_);
    for (const auto& r : rings_) r->clear();
  }

  /// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds).
  /// Loadable in chrome://tracing and ui.perfetto.dev.
  void export_chrome_trace(std::ostream& os) const {
    const auto spans = snapshot();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& s : spans) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"";
      detail::json_escape(os, s.name);
      os << "\",\"cat\":\"";
      detail::json_escape(os, s.cat.empty() ? std::string("cosmo") : s.cat);
      // pid groups tracks by rank; rank-less threads share pid 0.
      os << "\",\"ph\":\"X\",\"ts\":" << s.start_us
         << ",\"dur\":" << (s.end_us - s.start_us)
         << ",\"pid\":" << (s.rank < 0 ? 0 : s.rank + 1)
         << ",\"tid\":" << s.tid << ",\"args\":{\"rank\":" << s.rank
         << ",\"depth\":" << s.depth << "}}";
    }
    os << "\n]}\n";
  }

  /// Writes the Chrome trace to a file; returns false on I/O failure.
  bool export_chrome_trace_file(const std::filesystem::path& path) const {
    std::ofstream f(path, std::ios::trunc);
    if (!f.good()) return false;
    export_chrome_trace(f);
    return f.good();
  }

  /// Per-name aggregates, sorted by total time descending.
  std::vector<SpanStats> summary() const {
    std::map<std::string, SpanStats> by_name;
    for (const auto& s : snapshot()) {
      auto& st = by_name[s.name];
      st.name = s.name;
      ++st.count;
      const double sec = s.seconds();
      st.total_s += sec;
      if (sec > st.max_s) st.max_s = sec;
    }
    std::vector<SpanStats> out;
    out.reserve(by_name.size());
    for (auto& [_, st] : by_name) out.push_back(std::move(st));
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.total_s > b.total_s;
    });
    return out;
  }

  /// Plaintext summary table — the at-a-glance phase ledger.
  void print_summary(std::ostream& os) const {
    TextTable t({"span", "count", "total s", "mean s", "max s"});
    for (const auto& st : summary())
      t.add_row({st.name, std::to_string(st.count), TextTable::num(st.total_s, 4),
                 TextTable::num(st.mean_s(), 5), TextTable::num(st.max_s, 4)});
    t.print(os);
    const auto d = dropped();
    if (d) os << "(" << d << " spans dropped to ring overflow)\n";
  }

 private:
  Tracer() = default;

  std::shared_ptr<detail::SpanRing> register_ring() {
    std::lock_guard lock(mutex_);
    auto ring = std::make_shared<detail::SpanRing>(ring_capacity_,
                                                   next_tid_++);
    rings_.push_back(ring);
    return ring;
  }

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<detail::SpanRing>> rings_;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  int next_tid_ = 0;
  std::atomic<bool> enabled_{true};
};

namespace detail {
inline int& thread_depth_slot() {
  thread_local int depth = 0;
  return depth;
}
}  // namespace detail

/// RAII scoped span: records on destruction, including exception unwind.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::string cat = {}) {
    auto& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    active_ = true;
    span_.name = std::move(name);
    span_.cat = std::move(cat);
    span_.rank = current_rank();
    span_.depth = detail::thread_depth_slot()++;
    span_.start_us = detail::now_us();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { finish(); }

  /// Elapsed seconds so far (the span keeps running).
  double seconds() const {
    return (detail::now_us() - span_.start_us) * 1e-6;
  }

  /// Ends the span now and records it; returns its duration in seconds.
  /// Subsequent finish() calls (and the destructor) are no-ops.
  double finish() {
    if (!active_) return 0.0;
    active_ = false;
    span_.end_us = detail::now_us();
    --detail::thread_depth_slot();
    auto& ring = Tracer::instance().thread_ring();
    span_.tid = ring.tid();
    const double sec = span_.seconds();
    ring.push(std::move(span_));
    return sec;
  }

 private:
  Span span_;
  bool active_ = false;
};

/// Phase timer + span in one object. Always measures wall-clock (the
/// workflow ledger needs numbers even while the tracer is switched off at
/// run time); while tracing is on, the same interval is recorded as a span,
/// so the ledger and the trace cannot disagree.
class TimedSpan {
 public:
  explicit TimedSpan(std::string name, std::string cat = {})
      : span_(std::move(name), std::move(cat)) {}

  /// Elapsed seconds (span keeps running).
  double seconds() const { return timer_.seconds(); }

  /// Ends the span and returns the measured duration. The returned value is
  /// the span's recorded duration — ledger entries and trace entries match.
  double finish() {
    const double from_span = span_.finish();
    return from_span > 0.0 ? from_span : timer_.seconds();
  }

 private:
  WallTimer timer_;
  ScopedSpan span_;
};

}  // namespace cosmo::obs
