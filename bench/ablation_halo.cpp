// Ablation: the halo-analysis chain, serial vs pooled dispatch.
//
// The halo chain (FOF linking + k-d tree build + MBP centers + SO/shape/
// concentration properties) was the last analysis phase still dispatching
// serially: the PM loops, FFT and deposit all ran on the dpp pool while the
// per-halo work pinned one core. This bench measures the full in-situ
// analysis step — register_full_halo_pipeline driven through the
// InSituAnalysisManager — on Backend::Serial vs Backend::ThreadPool, both
// standalone and while analysis-driver threads hammer the same process-wide
// pool (the paper's co-scheduling scenario). Each scenario runs the step
// kReps times and reports the median, so a stray scheduling hiccup cannot
// fake (or hide) a speedup.
//
// The headline contract is asserted, not eyeballed: every scenario's halo
// catalog is CRC'd (sorted by id, raw record bytes) and the process exits
// nonzero if any backend or scenario disagrees — the pooled chain must be
// bit-identical to serial, not merely statistically close.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "util/crc32.h"
#include "util/timer.h"

using namespace cosmo;

namespace {

constexpr int kReps = 5;  // median-of-5 per scenario
constexpr int kAnalysisDrivers = 2;

struct HaloChainStats {
  double step_median_s = 0.0;  // median analysis step wall time
  double fof_s = 0.0;          // halo.fof span total across all reps
  double centers_s = 0.0;      // halo.centers
  double props_s = 0.0;        // halo.properties
  std::size_t halos = 0;
  std::uint32_t crc = 0;       // CRC32 of the sorted catalog (bit-identity)
};

double span_total(const char* name) {
  for (const auto& st : obs::Tracer::instance().summary())
    if (st.name == name) return st.total_s;
  return 0.0;
}

/// Short unoptimizable per-item loop, same shape as ablation_deposit's
/// stand-in: keeps the pool busy without saturating memory bandwidth.
double item_work(std::size_t i) {
  double acc = 0.0;
  for (int k = 1; k <= 12; ++k)
    acc += std::sqrt(static_cast<double>(i % 1024 + static_cast<std::size_t>(k)));
  return acc;
}

/// One scenario: kReps full analysis steps on the given backend, optionally
/// with kAnalysisDrivers threads issuing parallel_for loops on the shared
/// pool for the whole duration (the co-scheduled in-situ job).
HaloChainStats run_scenario(dpp::Backend be, bool concurrent_analysis) {
  const double fof0 = span_total("halo.fof");
  const double centers0 = span_total("halo.centers");
  const double props0 = span_total("halo.properties");

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

  HaloChainStats s;
  std::vector<double> step_s;
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::SyntheticConfig ucfg;
    ucfg.box = 48.0;
    ucfg.seed = 20151115;
    ucfg.halo_count = 50;
    ucfg.min_particles = 60;
    ucfg.max_particles = 8000;  // the monster: O(n²) centering dominates
    ucfg.background_particles = 10000;
    ucfg.subclump_fraction = 0.0;
    auto u = sim::generate_synthetic(c, cosmo, ucfg);
    sim::SlabDecomposition decomp(1, ucfg.box);
    core::InSituAnalysisManager manager(c, decomp, ucfg.box,
                                        u.total_particles, be);
    core::register_full_halo_pipeline(manager);
    manager.configure(core::CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length 0.32\nmin_size 40\noverload 2.0\n"));
    for (int r = 1; r <= kReps; ++r) {
      WallTimer t;
      sim::StepContext step{static_cast<std::size_t>(r),
                            static_cast<std::size_t>(kReps), 1.0, 0.0};
      auto ctx = manager.execute_step(step, u.local);
      step_s.push_back(t.seconds());
      stats::sort_catalog(ctx.catalog);
      const auto bytes = stats::catalog_to_bytes(ctx.catalog);
      const std::uint32_t crc = crc32(bytes.data(), bytes.size());
      if (r == 1) {
        s.halos = ctx.catalog.size();
        s.crc = crc;
      } else if (crc != s.crc) {
        s.crc = 0;  // reps disagreed — poison so the identity check fails
      }
    }
  });

  stop.store(true);
  for (auto& t : drivers) t.join();

  std::sort(step_s.begin(), step_s.end());
  s.step_median_s = step_s[step_s.size() / 2];
  s.fof_s = span_total("halo.fof") - fof0;
  s.centers_s = span_total("halo.centers") - centers0;
  s.props_s = span_total("halo.properties") - props0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — serial vs pooled halo-analysis chain (FOF + tree + "
      "centers + properties)",
      "the in-situ halo pipeline; the last serially-dispatched analysis "
      "phase");

  const auto serial = run_scenario(dpp::Backend::Serial, false);
  const auto pooled = run_scenario(dpp::Backend::ThreadPool, false);
  const auto serial_co = run_scenario(dpp::Backend::Serial, true);
  const auto pooled_co = run_scenario(dpp::Backend::ThreadPool, true);

  const bool bit_identical = serial.crc != 0 && serial.crc == pooled.crc &&
                             serial.crc == serial_co.crc &&
                             serial.crc == pooled_co.crc;

  TextTable t({"scenario", "step median (s)", "fof (s)", "centers (s)",
               "props (s)", "speedup"});
  auto add = [&](const char* name, const HaloChainStats& s, double base) {
    t.add_row({name, TextTable::num(s.step_median_s, 3),
               TextTable::num(s.fof_s / kReps, 3),
               TextTable::num(s.centers_s / kReps, 3),
               TextTable::num(s.props_s / kReps, 3),
               TextTable::num(base / std::max(s.step_median_s, 1e-12), 2)});
  };
  add("serial standalone (baseline)", serial, serial.step_median_s);
  add("pooled standalone", pooled, serial.step_median_s);
  add("serial + analysis drivers", serial_co, serial_co.step_median_s);
  add("pooled + analysis drivers", pooled_co, serial_co.step_median_s);
  t.print(std::cout);
  std::printf(
      "%zu catalog halos, %d analysis steps per scenario (median reported); "
      "%d analysis drivers in the concurrent scenarios\n"
      "catalog bit-identical across backends, grains and scenarios: %s "
      "(crc32 %08x)\npool workers: %zu; host threads: %u\n",
      serial.halos, kReps, kAnalysisDrivers,
      bit_identical ? "YES" : "NO — determinism contract violated",
      serial.crc, dpp::ThreadPool::instance().workers(),
      std::thread::hardware_concurrency());

  return !bit_identical;
}
