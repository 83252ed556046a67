// Ablation: the three MBP center-finder implementations across halo sizes,
// next to the scalar reference sum they must reproduce.
//
// The paper reports two speedups this bench checks the *shape* of:
//   * the A* search beats serial brute force by a problem-dependent factor
//     of roughly 8 (§3.3.2),
//   * the portable data-parallel (PISTON) implementation beats the serial
//     one by a large factor on accelerators (×50 on Titan's GPUs — here the
//     ThreadPool backend stands in, so the factor is the machine's core
//     count, not 50).
// It also demonstrates the O(n²) wall: doubling the halo size quadruples
// the cost — the root cause of the center finder's load imbalance.
//
// The scalar reference is a Serial tabulate of exact_potential, one target
// at a time; brute force runs the AVX2 tile kernel where the CPU has it.
// Both are timed in ns per pair, and the bench exits nonzero unless the
// two φ arrays are bitwise equal.
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench_common.h"
#include "halo/center_finder.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cosmo;

namespace {

sim::ParticleSet concentrated_halo(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  sim::ParticleSet p;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = 0.6 * std::pow(rng.uniform(), 2.0) + 1e-3;
    const double cz = rng.uniform(-1, 1), ph = rng.uniform(0, 2 * M_PI);
    const double s = std::sqrt(1 - cz * cz);
    p.push_back(static_cast<float>(8 + r * s * std::cos(ph)),
                static_cast<float>(8 + r * s * std::sin(ph)),
                static_cast<float>(8 + r * cz), 0, 0, 0,
                static_cast<std::int64_t>(i));
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — MBP center finder implementations vs halo size",
      "§3.3.2 (A* ≈ 8x serial; PISTON/GPU ≈ 50x serial)");

  TextTable t({"halo size", "scalar ref (s)", "serial brute (s)",
               "ref ns/pair", "brute ns/pair", "parallel brute (s)", "A* (s)",
               "A* exact evals", "serial/A*", "serial/parallel"});

  bool bitwise = true;
  double prev_serial = 0.0;
  std::size_t prev_n = 0;
  for (const std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    auto p = concentrated_halo(n, 31 + n);
    std::vector<std::uint32_t> members(n);
    std::iota(members.begin(), members.end(), 0u);
    halo::CenterConfig cfg;

    std::vector<double> ref(n);
    WallTimer t_ref;
    dpp::tabulate<double>(dpp::Backend::Serial, ref, [&](std::size_t k) {
      return halo::detail::exact_potential(p, members, k, cfg);
    });
    const double ref_s = t_ref.seconds();

    WallTimer t_serial;
    auto serial = halo::mbp_center_brute(dpp::Backend::Serial, p, members, cfg);
    const double serial_s = t_serial.seconds();

    WallTimer t_pool;
    auto pool =
        halo::mbp_center_brute(dpp::Backend::ThreadPool, p, members, cfg);
    const double pool_s = t_pool.seconds();

    WallTimer t_astar;
    auto astar = halo::mbp_center_astar(p, members, cfg);
    const double astar_s = t_astar.seconds();

    COSMO_REQUIRE(serial.particle == pool.particle &&
                      serial.particle == astar.particle,
                  "center finders disagree");
    const auto phi =
        halo::detail::potentials(dpp::Backend::ThreadPool, p, members, cfg);
    if (std::memcmp(phi.data(), ref.data(), n * sizeof(double)) != 0) {
      std::printf("  n %zu: brute-force potentials differ from the scalar "
                  "reference\n", n);
      bitwise = false;
    }

    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    t.add_row({std::to_string(n), TextTable::num(ref_s, 4),
               TextTable::num(serial_s, 4), TextTable::num(ref_s / pairs * 1e9, 2),
               TextTable::num(serial_s / pairs * 1e9, 2),
               TextTable::num(pool_s, 4), TextTable::num(astar_s, 4),
               std::to_string(astar.exact_evaluations),
               TextTable::num(serial_s / astar_s, 1),
               TextTable::num(serial_s / pool_s, 2)});

    if (prev_n != 0) {
      const double growth = serial_s / prev_serial;
      std::printf("  n %zu -> %zu: serial cost x%.2f (O(n^2) predicts x%.1f)\n",
                  prev_n, n, growth,
                  static_cast<double>(n * n) /
                      static_cast<double>(prev_n * prev_n));
    }
    prev_serial = serial_s;
    prev_n = n;
  }
  t.print(std::cout);

  std::printf("\nshape to match: all three agree on the center; A* expands "
              "only a small fraction of particles (factor ~8 in the paper);\n"
              "the data-parallel backend scales with available cores (the "
              "paper's GPU backend reached ~50x);\ncost grows as n^2 — a 10M-"
              "particle halo costs 10,000x a 100k one (§3.3.2).\n");
  std::printf("brute-force potentials %s the scalar reference (AVX2 tile "
              "kernel %s)\n",
              bitwise ? "bitwise equal to" : "DIFFER from",
              halo::detail::has_avx2() ? "on" : "off: no AVX2");
  return bitwise ? 0 : 1;
}
