// Wall-clock stopwatch. obs::TimedSpan falls back to it while tracing is
// switched off at run time; the comm and dispatch wait counters and the
// benches time with it directly.
#pragma once

#include <chrono>

namespace cosmo {

/// Simple monotonic stopwatch; seconds() reads elapsed time without stopping.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cosmo
