// Ablation: concurrent parallel_for dispatch — several SPMD ranks drive the
// process-wide dpp worker pool at once, the co-scheduling scenario the
// paper's in-situ analysis lives in. Measures aggregate throughput, the
// dpp.dispatch_wait tail, and (with the work-stealing scheduler) steal
// counts, for both a uniform and a 10x-imbalanced rank workload.
#include <atomic>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "dpp/primitives.h"
#include "util/timer.h"

using namespace cosmo;

namespace {

/// One concurrent-dispatch scenario: `ranks` SPMD ranks each issue
/// `dispatches` parallel_for calls over their own item count. Per-item work
/// is a short but unoptimizable float loop (~100ns) so dispatch overhead and
/// pool sharing, not memory bandwidth, dominate the measurement.
struct ConcurrentStats {
  double wall_s = 0.0;
  double items = 0.0;
  std::uint64_t dispatch_wait_us = 0;
  double wait_ms_p99 = 0.0;
  std::uint64_t steals = 0;
};

double item_work(std::size_t i) {
  double acc = 0.0;
  for (int k = 1; k <= 12; ++k)
    acc += std::sqrt(static_cast<double>(i % 1024 + static_cast<std::size_t>(k)));
  return acc;
}

/// Approximate p99 of the dpp.dispatch_wait_ms histogram (upper edge of the
/// bin containing the 99th percentile; overflow reports the histogram max).
double dispatch_wait_p99_ms() {
  auto& reg = obs::MetricsRegistry::instance();
  if (!reg.has_histogram("dpp.dispatch_wait_ms")) return 0.0;
  const auto h = reg.histogram("dpp.dispatch_wait_ms", 0.0, 50.0, 50).merged();
  const std::uint64_t total = h.total();
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(0.99 * static_cast<double>(total));
  std::uint64_t seen = h.underflow();
  for (std::size_t b = 0; b < h.bins(); ++b) {
    seen += h.count(b);
    if (seen >= target) return h.bin_lo(b) + h.width();
  }
  return 50.0;  // p99 sits in the overflow bin
}

ConcurrentStats run_concurrent(int ranks, int dispatches,
                               std::size_t items_uniform,
                               bool imbalanced) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  std::atomic<double> sink{0.0};
  WallTimer wall;
  double total_items = 0.0;
  comm::run_spmd(ranks, [&](comm::Comm& c) {
    // Imbalanced mode: rank 0 carries 10x the items of every other rank —
    // the "one monster halo" shape from the paper's center-finder phase.
    const std::size_t mine =
        imbalanced && c.rank() == 0 ? 10 * items_uniform : items_uniform;
    double local = 0.0;
    std::vector<double> out(mine);
    for (int d = 0; d < dispatches; ++d) {
      dpp::ThreadPool::instance().parallel_for(
          mine, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) out[i] = item_work(i);
          });
      local += out[mine / 2];
    }
    sink.store(local);  // keep `out` observable
    c.barrier();
  });
  ConcurrentStats s;
  s.wall_s = wall.seconds();
  for (int r = 0; r < ranks; ++r)
    total_items += static_cast<double>(dispatches) *
                   static_cast<double>(imbalanced && r == 0 ? 10 * items_uniform
                                                           : items_uniform);
  s.items = total_items;
  s.dispatch_wait_us = reg.counter("dpp.dispatch_wait_us").total();
  s.wait_ms_p99 = dispatch_wait_p99_ms();
  if (reg.has_counter("dpp.steals"))
    s.steals = reg.counter("dpp.steals").total();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — concurrent parallel_for dispatch (co-scheduled ranks "
      "sharing the dpp pool)",
      "§3.1 (in-situ analysis sharing the simulation's cores)");

  const bool work_stealing = [] {
    // Probe: the work-stealing scheduler registers dpp.steals on first use.
    dpp::ThreadPool::instance().parallel_for(
        1 << 14, [](std::size_t, std::size_t) {});
    return obs::MetricsRegistry::instance().has_counter("dpp.steals");
  }();
  constexpr int kRanks = 4;
  constexpr int kDispatches = 48;
  constexpr std::size_t kItems = 1 << 14;

  const auto solo = run_concurrent(1, kDispatches, kItems, false);
  const auto uniform = run_concurrent(kRanks, kDispatches, kItems, false);
  const auto imbalanced = run_concurrent(kRanks, kDispatches, kItems, true);

  TextTable t({"scenario", "ranks", "wall (s)", "Mitems/s",
               "dispatch wait (ms total)", "wait p99 (ms)", "steals"});
  auto add = [&](const char* name, int ranks, const ConcurrentStats& s) {
    t.add_row({name, std::to_string(ranks), TextTable::num(s.wall_s, 3),
               TextTable::num(s.items / std::max(s.wall_s, 1e-9) / 1e6, 2),
               TextTable::num(static_cast<double>(s.dispatch_wait_us) / 1e3, 1),
               TextTable::num(s.wait_ms_p99, 1), std::to_string(s.steals)});
  };
  add("solo rank", 1, solo);
  add("uniform", kRanks, uniform);
  add("imbalanced 10x", kRanks, imbalanced);
  t.print(std::cout);
  std::printf("scheduler: %s; pool workers: %zu; host threads: %u\n",
              work_stealing ? "work-stealing task groups"
                            : "serialized single-job (pre-redesign)",
              dpp::ThreadPool::instance().workers(),
              std::thread::hardware_concurrency());

  return 0;
}
