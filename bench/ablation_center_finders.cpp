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
// Brute force computes each pair once and runs one task per halo: its
// parallelism is across the halos of a catalog, so a lone halo here runs
// on one thread, and the pool's factor shows as serial over pooled A*. The
// bench also demonstrates the O(n²) wall of brute force — doubling the
// halo size quadruples the cost, the root cause of the center finder's
// load imbalance — and fits t(n) = c·n^α to mbp_center, the finder the
// workflows run.
//
// Per size it times the scalar reference (a Serial tabulate of
// exact_potential, one target at a time), brute force (the symmetric AVX2
// tile kernel where the CPU has it: the same kernel on either backend),
// the serial and pooled A*, and mbp_center, and reports brute force's cost
// per ordered pair. It prints the measured crossovers, the smallest size
// from which the A* beats brute force at that and every larger size, on
// one thread and pooled, beside kAStarMinMembers. The bench exits nonzero
// unless the brute-force potentials equal the scalar reference bit for bit
// on both backends and the A* and mbp_center return brute force's member
// index and φ bits.
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

  TextTable t({"halo size", "scalar ref (s)", "brute (s)", "ref ns/pair",
               "brute ns/pair", "serial A* (s)", "pooled A* (s)",
               "A* exact evals", "mbp_center (s)", "brute/serial A*",
               "brute/pooled A*", "serial/pooled A*"});

  bool agree = true, bitwise = true;
  double prev_brute = 0.0;
  std::size_t prev_n = 0;
  const std::vector<std::size_t> sizes = {1000, 2000, 3000, 4000,  5000,
                                          6000, 8000, 12000, 16000};
  std::vector<double> size_d, brute_s, serial_astar_s, astar_s, center_s;
  {
    // Warm the pool and the caches, so the first size is not timed cold.
    const auto p = nfw_halo(sizes.front(), 1);
    std::vector<std::uint32_t> members(p.size());
    std::iota(members.begin(), members.end(), 0u);
    halo::mbp_center_astar(dpp::Backend::ThreadPool, p, members, {});
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

    const auto pool = dpp::Backend::ThreadPool;
    WallTimer t_serial_astar;
    auto serial_astar =
        halo::mbp_center_astar(dpp::Backend::Serial, p, members, cfg);
    const double serial_astar_t = t_serial_astar.seconds();

    halo::CenterResult brute, astar, center;
    const double brute_t = best_of_three(
        [&] { return halo::mbp_center_brute(pool, p, members, cfg); }, brute);
    const double astar_t = best_of_three(
        [&] { return halo::mbp_center_astar(pool, p, members, cfg); }, astar);
    const double center_t = best_of_three(
        [&] { return halo::mbp_center(pool, p, members, cfg); }, center);

    if (!same_center(brute, serial_astar) || !same_center(brute, astar) ||
        !same_center(brute, center)) {
      std::printf("  n %zu: the finders disagree on the center (brute "
                  "member %u, A* member %u, mbp_center member %u)\n",
                  n, brute.member_index, astar.member_index,
                  center.member_index);
      agree = false;
    }
    for (const auto backend : {dpp::Backend::Serial, pool}) {
      const auto phi = halo::detail::potentials(backend, p, members, cfg);
      if (std::memcmp(phi.data(), ref.data(), n * sizeof(double)) != 0) {
        std::printf("  n %zu: %s brute-force potentials differ from the "
                    "scalar reference\n", n, dpp::to_string(backend));
        bitwise = false;
      }
    }

    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    t.add_row({std::to_string(n), TextTable::num(ref_s, 4),
               TextTable::num(brute_t, 4),
               TextTable::num(ref_s / pairs * 1e9, 2),
               TextTable::num(brute_t / pairs * 1e9, 2),
               TextTable::num(serial_astar_t, 4), TextTable::num(astar_t, 4),
               std::to_string(astar.exact_evaluations),
               TextTable::num(center_t, 4),
               TextTable::num(brute_t / serial_astar_t, 2),
               TextTable::num(brute_t / astar_t, 2),
               TextTable::num(serial_astar_t / astar_t, 2)});
    size_d.push_back(static_cast<double>(n));
    brute_s.push_back(brute_t);
    serial_astar_s.push_back(serial_astar_t);
    astar_s.push_back(astar_t);
    center_s.push_back(center_t);

    if (prev_n != 0) {
      const double growth = brute_t / prev_brute;
      std::printf("  n %zu -> %zu: brute cost x%.2f (O(n^2) predicts x%.1f)\n",
                  prev_n, n, growth,
                  static_cast<double>(n * n) /
                      static_cast<double>(prev_n * prev_n));
    }
    prev_brute = brute_t;
    prev_n = n;
  }
  t.print(std::cout);

  // Crossover: the first size from which the A* wins at every size.
  auto crossover = [&](const char* which, const std::vector<double>& a) {
    std::size_t cross = sizes.size();
    while (cross > 0 && a[cross - 1] < brute_s[cross - 1]) --cross;
    if (cross == sizes.size())
      std::printf("measured crossover, %s: the A* does not beat brute force "
                  "at %zu members\n", which, sizes.back());
    else if (cross == 0)
      std::printf("measured crossover, %s: the A* beats brute force from "
                  "%zu members, the smallest size\n", which, sizes[0]);
    else
      std::printf("measured crossover, %s: the A* beats brute force from "
                  "%zu members on (not at %zu)\n",
                  which, sizes[cross], sizes[cross - 1]);
  };
  std::printf("\n");
  crossover("one thread each", serial_astar_s);
  crossover("pooled A* against one brute-force task", astar_s);
  std::printf("kAStarMinMembers = %zu, unchanged: the workflows centre "
              "brute-force halos one task per halo on a pool the other "
              "halos keep busy, so no lone halo is centred on an idle pool "
              "as here\n",
              halo::kAStarMinMembers);
  double c = 0, alpha = 0, cb = 0, alpha_b = 0;
  fit_power_law(size_d, center_s, c, alpha);
  fit_power_law(size_d, brute_s, cb, alpha_b);
  std::printf("fit over these sizes: mbp_center t(n) = %.3g * n^%.2f s; "
              "brute force t(n) = %.3g * n^%.2f s\n",
              c, alpha, cb, alpha_b);

  std::printf("\nshape to match: every finder agrees on the center; A* "
              "expands only a fraction of particles (factor ~8 in the "
              "paper);\nthe data-parallel backend scales with available "
              "cores (the paper's GPU backend reached ~50x; here serial/"
              "pooled A*,\nsince brute force runs one task per halo);\n"
              "brute-force cost grows as n^2 — a 10M-particle halo costs "
              "10,000x a 100k one (§3.3.2).\n");
  std::printf("A* and mbp_center %s brute force's member index and phi "
              "bits\n",
              agree ? "return" : "DO NOT return");
  std::printf("brute-force potentials %s the scalar reference on both "
              "backends (symmetric AVX2 tile kernel %s)\n",
              bitwise ? "bitwise equal to" : "DIFFER from",
              halo::detail::has_avx2() ? "on" : "off: no AVX2");
  return agree && bitwise ? 0 : 1;
}
