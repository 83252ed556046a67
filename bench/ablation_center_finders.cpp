// Ablation: the MBP center finders across halo sizes, next to the scalar
// reference sum they must reproduce.
//
// The paper reports two speedups this bench checks the *shape* of:
//   * the A* search beats serial brute force by a problem-dependent factor
//     of roughly 8 (§3.3.2),
//   * the portable data-parallel (PISTON) implementation beats the serial
//     one by a large factor on accelerators (×50 on Titan's GPUs — here the
//     ThreadPool backend stands in, so the factor is the machine's core
//     count, not 50).
// It also demonstrates the O(n²) wall of brute force — doubling the halo
// size quadruples the cost, the root cause of the center finder's load
// imbalance — and fits t(n) = c·n^α to mbp_center, the finder the
// workflows run.
//
// Per size it times the scalar reference (a Serial tabulate of
// exact_potential, one target at a time), serial and pooled brute force
// (the AVX2 tile kernel where the CPU has it), the serial and pooled A*,
// and mbp_center. It prints the measured crossover, the smallest size from
// which the pooled A* beats pooled brute force at that and every larger
// size, beside kAStarMinMembers. The bench exits nonzero unless the
// brute-force potentials equal the scalar reference bit for bit and the
// A* and mbp_center return brute force's member index and φ bits.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench_common.h"
#include "halo/center_finder.h"
#include "sim/synthetic.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cosmo;

namespace {

/// One NFW halo of n particles, drawn like the synthetic generator's halos
/// (concentration 5), in the middle of a periodic box.
constexpr double kBox = 48.0;

sim::ParticleSet nfw_halo(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  sim::ParticleSet p(n);
  sim::detail::NfwSampler nfw(p, 5.0);
  nfw.draw(rng, 0.5 * kBox, 0.5 * kBox, 0.5 * kBox, 1.6, n, 0, 0.0);
  nfw.flush();
  return p;
}

/// Best of three runs of a finder: the pooled runs are short enough for a
/// stray scheduling hiccup to dominate one sample.
template <typename Fn>
double best_of_three(Fn&& fn, halo::CenterResult& out) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    out = fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

bool same_center(const halo::CenterResult& a, const halo::CenterResult& b) {
  return a.member_index == b.member_index && a.particle == b.particle &&
         std::bit_cast<std::uint64_t>(a.potential) ==
             std::bit_cast<std::uint64_t>(b.potential);
}

/// Least-squares slope and intercept of log t against log n.
void fit_power_law(const std::vector<double>& n, const std::vector<double>& t,
                   double& c, double& alpha) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]), y = std::log(t[i]);
    sx += x, sy += y, sxx += x * x, sxy += x * y;
  }
  alpha = (m * sxy - sx * sy) / (m * sxx - sx * sx);
  c = std::exp((sy - alpha * sx) / m);
}

}  // namespace

int main(int argc, char** argv) {
  bench_common::ObsSession obs_session(argc, argv);
  bench_common::print_header(
      "Ablation — MBP center finder implementations vs halo size",
      "§3.3.2 (A* ≈ 8x serial; PISTON/GPU ≈ 50x serial)");

  TextTable t({"halo size", "scalar ref (s)", "serial brute (s)",
               "ref ns/pair", "brute ns/pair", "serial A* (s)",
               "pooled brute (s)", "pooled A* (s)", "A* exact evals",
               "mbp_center (s)", "serial brute/A*", "pooled brute/A*",
               "serial/pooled brute"});

  bool agree = true, bitwise = true;
  double prev_serial = 0.0;
  std::size_t prev_n = 0;
  const std::vector<std::size_t> sizes = {1000, 2000, 3000, 4000,  5000,
                                          6000, 8000, 12000, 16000};
  std::vector<double> size_d, pooled_brute_s, astar_s, center_s;
  {
    // Warm the pool and the caches, so the first size is not timed cold.
    const auto p = nfw_halo(sizes.front(), 1);
    std::vector<std::uint32_t> members(p.size());
    std::iota(members.begin(), members.end(), 0u);
    halo::mbp_center_brute(dpp::Backend::ThreadPool, p, members, {});
  }
  for (const std::size_t n : sizes) {
    const auto p = nfw_halo(n, 31 + n);
    std::vector<std::uint32_t> members(n);
    std::iota(members.begin(), members.end(), 0u);
    halo::CenterConfig cfg;
    cfg.box = kBox;

    std::vector<double> ref(n);
    WallTimer t_ref;
    dpp::tabulate<double>(dpp::Backend::Serial, ref, [&](std::size_t k) {
      return halo::detail::exact_potential(p, members, k, cfg);
    });
    const double ref_s = t_ref.seconds();

    WallTimer t_serial;
    auto serial = halo::mbp_center_brute(dpp::Backend::Serial, p, members, cfg);
    const double serial_s = t_serial.seconds();

    WallTimer t_serial_astar;
    auto serial_astar =
        halo::mbp_center_astar(dpp::Backend::Serial, p, members, cfg);
    const double serial_astar_s = t_serial_astar.seconds();

    const auto pool = dpp::Backend::ThreadPool;
    halo::CenterResult brute, astar, center;
    const double brute_t = best_of_three(
        [&] { return halo::mbp_center_brute(pool, p, members, cfg); }, brute);
    const double astar_t = best_of_three(
        [&] { return halo::mbp_center_astar(pool, p, members, cfg); }, astar);
    const double center_t = best_of_three(
        [&] { return halo::mbp_center(pool, p, members, cfg); }, center);

    if (!same_center(serial, brute) || !same_center(serial, serial_astar) ||
        !same_center(serial, astar) || !same_center(serial, center)) {
      std::printf("  n %zu: the finders disagree on the center (brute "
                  "member %u, A* member %u, mbp_center member %u)\n",
                  n, serial.member_index, astar.member_index,
                  center.member_index);
      agree = false;
    }
    const auto phi = halo::detail::potentials(pool, p, members, cfg);
    if (std::memcmp(phi.data(), ref.data(), n * sizeof(double)) != 0) {
      std::printf("  n %zu: brute-force potentials differ from the scalar "
                  "reference\n", n);
      bitwise = false;
    }

    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    t.add_row({std::to_string(n), TextTable::num(ref_s, 4),
               TextTable::num(serial_s, 4),
               TextTable::num(ref_s / pairs * 1e9, 2),
               TextTable::num(serial_s / pairs * 1e9, 2),
               TextTable::num(serial_astar_s, 4), TextTable::num(brute_t, 4),
               TextTable::num(astar_t, 4),
               std::to_string(astar.exact_evaluations),
               TextTable::num(center_t, 4),
               TextTable::num(serial_s / serial_astar_s, 1),
               TextTable::num(brute_t / astar_t, 2),
               TextTable::num(serial_s / brute_t, 2)});
    size_d.push_back(static_cast<double>(n));
    pooled_brute_s.push_back(brute_t);
    astar_s.push_back(astar_t);
    center_s.push_back(center_t);

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

  // Crossover: the first size from which the pooled A* wins at every size.
  std::size_t cross = sizes.size();
  while (cross > 0 && astar_s[cross - 1] < pooled_brute_s[cross - 1]) --cross;
  if (cross == sizes.size())
    std::printf("\nmeasured crossover: the pooled A* does not beat pooled "
                "brute force at %zu members", sizes.back());
  else if (cross == 0)
    std::printf("\nmeasured crossover: the pooled A* beats pooled brute "
                "force from %zu members, the smallest size", sizes[0]);
  else
    std::printf("\nmeasured crossover: the pooled A* beats pooled brute "
                "force from %zu members on (not at %zu)",
                sizes[cross], sizes[cross - 1]);
  std::printf("; mbp_center switches to the A* at kAStarMinMembers = %zu\n",
              halo::kAStarMinMembers);
  double c = 0, alpha = 0, cb = 0, alpha_b = 0;
  fit_power_law(size_d, center_s, c, alpha);
  fit_power_law(size_d, pooled_brute_s, cb, alpha_b);
  std::printf("fit over these sizes: mbp_center t(n) = %.3g * n^%.2f s; "
              "pooled brute force t(n) = %.3g * n^%.2f s\n",
              c, alpha, cb, alpha_b);

  std::printf("\nshape to match: every finder agrees on the center; A* "
              "expands only a fraction of particles (factor ~8 in the "
              "paper);\nthe data-parallel backend scales with available "
              "cores (the paper's GPU backend reached ~50x);\nbrute-force "
              "cost grows as n^2 — a 10M-particle halo costs 10,000x a 100k "
              "one (§3.3.2).\n");
  std::printf("A* and mbp_center %s brute force's member index and phi "
              "bits\n",
              agree ? "return" : "DO NOT return");
  std::printf("brute-force potentials %s the scalar reference (AVX2 tile "
              "kernel %s)\n",
              bitwise ? "bitwise equal to" : "DIFFER from",
              halo::detail::has_avx2() ? "on" : "off: no AVX2");
  return agree && bitwise ? 0 : 1;
}
