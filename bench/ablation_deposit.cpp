// Ablation: the CIC deposit phase, serial vs pooled scatter-reduce.
//
// The deposit was the last serial stage of the PM/analysis pipeline: every
// other grid loop dispatched on the dpp pool while deposit_density pinned a
// core on a single-threaded scatter. This bench measures the per-deposit
// cost of Backend::Serial vs Backend::ThreadPool (the deterministic
// per-thread slab reduction in dpp::deposit_reduce), both standalone and
// while analysis drivers hammer the same process-wide pool — the paper's
// co-scheduling scenario, where the in-situ analysis and the solver share
// one node. It also checks the headline contract: both backends produce a
// bit-identical δ field (CRC32 over the raw doubles, ghost planes included).
//
// The serial scenario doubles as the baseline the pooled speedups are
// quoted against.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "sim/pm_solver.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cosmo;

namespace {

constexpr std::size_t kGrid = 64;
constexpr double kBox = 64.0;
constexpr std::size_t kParticles = 4 * kGrid * kGrid * kGrid;  // 4 per cell
constexpr int kReps = 8;
constexpr int kAnalysisDrivers = 2;

struct DepositStats {
  double wall_s = 0.0;
  double deposit_s = 0.0;      // sim.deposit span total across all reps
  std::uint64_t buffers = 0;   // private slabs allocated (dpp.deposit_buffers)
  std::uint64_t steals = 0;
  std::uint32_t crc = 0;       // CRC32 of the final δ field (bit-identity)
};

double span_total(const char* name) {
  for (const auto& st : obs::Tracer::instance().summary())
    if (st.name == name) return st.total_s;
  return 0.0;
}

/// Short unoptimizable per-item loop, same shape as ablation_dispatch's
/// analysis stand-in: keeps the pool busy without saturating memory bandwidth.
double item_work(std::size_t i) {
  double acc = 0.0;
  for (int k = 1; k <= 12; ++k)
    acc += std::sqrt(static_cast<double>(i % 1024 + static_cast<std::size_t>(k)));
  return acc;
}

/// One scenario: kReps full-box deposits on the given backend, optionally
/// with kAnalysisDrivers threads issuing analysis-style parallel_for loops
/// on the shared pool for the whole duration (the co-scheduled in-situ job).
DepositStats run_scenario(dpp::Backend be, bool concurrent_analysis) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  const double deposit_before = span_total("sim.deposit");

  std::atomic<bool> stop{false};
  std::atomic<double> sink{0.0};
  std::vector<std::thread> drivers;
  if (concurrent_analysis) {
    for (int d = 0; d < kAnalysisDrivers; ++d)
      drivers.emplace_back([&] {
        std::vector<double> out(1 << 14);
        while (!stop.load(std::memory_order_relaxed)) {
          dpp::ThreadPool::instance().parallel_for(
              out.size(), [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) out[i] = item_work(i);
              });
          sink.store(out[out.size() / 2], std::memory_order_relaxed);
        }
      });
  }

  DepositStats s;
  WallTimer wall;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::PmSolver pm(c, cosmo, kGrid, kBox);
    pm.set_backend(be);
    sim::ParticleSet p;
    Rng rng(20151115);
    for (std::size_t i = 0; i < kParticles; ++i)
      p.push_back(static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)),
                  static_cast<float>(rng.uniform(0, kBox)), 0, 0, 0, 0);
    const double mean = static_cast<double>(kParticles) /
                        static_cast<double>(kGrid * kGrid * kGrid);
    for (int r = 0; r < kReps; ++r) {
      auto delta = pm.deposit_density(p, mean);
      const auto d = delta.data();
      s.crc = crc32(d.data(), d.size() * sizeof(double));
    }
  });
  s.wall_s = wall.seconds();

  stop.store(true);
  for (auto& t : drivers) t.join();

  s.deposit_s = span_total("sim.deposit") - deposit_before;
  if (reg.has_counter("dpp.deposit_buffers"))
    s.buffers = reg.counter("dpp.deposit_buffers").total();
  if (reg.has_counter("dpp.steals")) s.steals = reg.counter("dpp.steals").total();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — serial vs pooled CIC deposit (deterministic scatter-reduce)",
      "the in-situ density pipeline; deposit was the last serial stage");

  const auto serial = run_scenario(dpp::Backend::Serial, false);
  const auto pooled = run_scenario(dpp::Backend::ThreadPool, false);
  const auto serial_co = run_scenario(dpp::Backend::Serial, true);
  const auto pooled_co = run_scenario(dpp::Backend::ThreadPool, true);

  const bool bit_identical = serial.crc == pooled.crc &&
                             serial.crc == serial_co.crc &&
                             serial.crc == pooled_co.crc;

  TextTable t({"scenario", "deposit ms/step", "wall (s)", "speedup",
               "buffers", "steals"});
  auto add = [&](const char* name, const DepositStats& s) {
    t.add_row({name, TextTable::num(s.deposit_s / kReps * 1e3, 2),
               TextTable::num(s.wall_s, 3),
               TextTable::num(serial.deposit_s / std::max(s.deposit_s, 1e-12), 2),
               std::to_string(s.buffers), std::to_string(s.steals)});
  };
  add("serial standalone (baseline)", serial);
  add("pooled standalone", pooled);
  add("serial + analysis drivers", serial_co);
  add("pooled + analysis drivers", pooled_co);
  t.print(std::cout);
  std::printf(
      "grid %zu^3, %zu particles, %d deposits per scenario; %d analysis "
      "drivers in the concurrent scenarios\n"
      "delta field bit-identical across backends and scenarios: %s "
      "(crc32 %08x)\npool workers: %zu; host threads: %u\n",
      kGrid, kParticles, kReps, kAnalysisDrivers,
      bit_identical ? "YES" : "NO — determinism contract violated",
      serial.crc, dpp::ThreadPool::instance().workers(),
      std::thread::hardware_concurrency());

  return !bit_identical;
}
