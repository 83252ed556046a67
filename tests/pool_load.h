// Test helper: runs a computation while another thread keeps the shared dpp
// pool busy, as a co-scheduled analysis does.
#pragma once

#include <cmath>
#include <stop_token>
#include <thread>
#include <vector>

#include "dpp/thread_pool.h"

namespace cosmo::testutil {

/// Returns f(), called while one extra thread issues parallel_for loops on
/// the pool back to back until f has returned.
template <typename F>
auto with_pool_load(F&& f) {
  std::jthread load([](std::stop_token stop) {
    std::vector<double> out(1 << 14);
    while (!stop.stop_requested())
      dpp::ThreadPool::instance().parallel_for(
          out.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) out[i] = std::sqrt(i + 1.0);
          });
  });
  return f();
}

}  // namespace cosmo::testutil
