// Halo center finding — Most Bound Particle (MBP) definition (§3.3.2).
//
// The center is the particle minimizing the potential
//     φ(i) = Σ_{j≠i} −m_j / (d_ij + ε),
// with a small softening ε guarding against coincident particles. Two
// implementations, mirroring the paper:
//
//  * mbp_center_brute   — the PISTON version: O(n²) data-parallel potential
//                         evaluation + argmin, one source targeting both
//                         dpp backends (the "GPU" path on ThreadPool). On a
//                         CPU with AVX2 the potentials run four targets at a
//                         time through one tile kernel whose lanes repeat
//                         exact_potential's operations in its order, so φ is
//                         bit-identical to the scalar sum on every host.
//  * mbp_center_astar   — the legacy serial version: A*-style search with
//                         an optimistic tree-based lower bound per particle,
//                         evaluating exact potentials best-first until the
//                         best exact value beats every remaining bound
//                         (reported ~8x faster than serial brute force).
//
// Both agree exactly on the chosen particle (ties break to lowest tag).
// All distances use the periodic minimum image; halos are compact, so this
// is exact for any halo smaller than half the box.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "dpp/primitives.h"
#include "halo/kdtree.h"
#include "sim/particles.h"
#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define COSMO_CENTER_AVX2 1
#endif

namespace cosmo::halo {

struct CenterConfig {
  double softening = 1e-6;  ///< ε added to pair distances
  double box = 0.0;         ///< periodic box (0 = non-periodic)
};

struct CenterResult {
  std::uint32_t member_index = 0;  ///< position within the members list
  std::uint32_t particle = 0;      ///< index into the particle set
  double potential = 0.0;          ///< φ at the center
  std::uint64_t exact_evaluations = 0;  ///< # of O(n) potential sums computed
};

namespace detail {

inline double fold(double d, double box) {
  if (box <= 0.0) return d;
  if (d > 0.5 * box) d -= box;
  if (d < -0.5 * box) d += box;
  return d;
}

/// Exact potential of member k (unit masses).
inline double exact_potential(const sim::ParticleSet& p,
                              std::span<const std::uint32_t> members,
                              std::size_t k, const CenterConfig& cfg) {
  const std::uint32_t i = members[k];
  const double xi = p.x[i], yi = p.y[i], zi = p.z[i];
  double phi = 0.0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (m == k) continue;
    const std::uint32_t j = members[m];
    const double dx = fold(xi - p.x[j], cfg.box);
    const double dy = fold(yi - p.y[j], cfg.box);
    const double dz = fold(zi - p.z[j], cfg.box);
    const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
    phi -= 1.0 / (d + cfg.softening);
  }
  return phi;
}

#ifdef COSMO_CENTER_AVX2
/// fold() on four lanes, as two selects in fold()'s order.
__attribute__((target("avx2"))) inline __m256d fold_avx2(__m256d d,
                                                         __m256d box,
                                                         __m256d half,
                                                         __m256d neg_half) {
  d = _mm256_blendv_pd(d, _mm256_sub_pd(d, box),
                       _mm256_cmp_pd(d, half, _CMP_GT_OQ));
  return _mm256_blendv_pd(d, _mm256_add_pd(d, box),
                          _mm256_cmp_pd(d, neg_half, _CMP_LT_OQ));
}

/// The AVX2 tile kernel: phi[k] = exact_potential(p, members, k, cfg) for
/// k in [lo, hi), bit for bit, with lo a multiple of 4. Each whole tile of
/// four targets loads its targets once and streams every source from the
/// particle set through `members`, so no per-halo copy is made; lane l
/// sums m = 0..n−1 in member order and its self pair subtracts +0.0, an
/// exact no-op. A short last tile falls back to exact_potential.
__attribute__((target("avx2"))) inline void potentials_avx2(
    const sim::ParticleSet& p, std::span<const std::uint32_t> members,
    std::size_t lo, std::size_t hi, const CenterConfig& cfg,
    std::span<double> phi) {
  const std::size_t n = members.size();
  const float* px = p.x.data();
  const float* py = p.y.data();
  const float* pz = p.z.data();
  // box 0 turns both selects into exact no-ops: fold()'s non-periodic case.
  const double box_d = cfg.box > 0.0 ? cfg.box : 0.0;
  const __m256d box = _mm256_set1_pd(box_d);
  const __m256d half = _mm256_set1_pd(0.5 * box_d);
  const __m256d neg_half = _mm256_set1_pd(-0.5 * box_d);
  const __m256d eps = _mm256_set1_pd(cfg.softening);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d self_mask[4] = {
      _mm256_castsi256_pd(_mm256_setr_epi64x(0, -1, -1, -1)),
      _mm256_castsi256_pd(_mm256_setr_epi64x(-1, 0, -1, -1)),
      _mm256_castsi256_pd(_mm256_setr_epi64x(-1, -1, 0, -1)),
      _mm256_castsi256_pd(_mm256_setr_epi64x(-1, -1, -1, 0))};
  std::size_t k0 = lo;
  for (; k0 + 4 <= hi; k0 += 4) {
    const std::uint32_t* t = members.data() + k0;
    const __m256d xi = _mm256_setr_pd(px[t[0]], px[t[1]], px[t[2]], px[t[3]]);
    const __m256d yi = _mm256_setr_pd(py[t[0]], py[t[1]], py[t[2]], py[t[3]]);
    const __m256d zi = _mm256_setr_pd(pz[t[0]], pz[t[1]], pz[t[2]], pz[t[3]]);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t m = 0; m < n; ++m) {
      const std::uint32_t j = members[m];
      const __m256d dx = fold_avx2(
          _mm256_sub_pd(xi, _mm256_set1_pd(px[j])), box, half, neg_half);
      const __m256d dy = fold_avx2(
          _mm256_sub_pd(yi, _mm256_set1_pd(py[j])), box, half, neg_half);
      const __m256d dz = fold_avx2(
          _mm256_sub_pd(zi, _mm256_set1_pd(pz[j])), box, half, neg_half);
      const __m256d d2 = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
          _mm256_mul_pd(dz, dz));
      __m256d term = _mm256_div_pd(
          one, _mm256_add_pd(_mm256_sqrt_pd(d2), eps));
      if (m - k0 < 4)  // m is one of this tile's own targets
        term = _mm256_and_pd(term, self_mask[m - k0]);
      acc = _mm256_sub_pd(acc, term);
    }
    _mm256_storeu_pd(phi.data() + k0, acc);
  }
  for (; k0 < hi; ++k0) phi[k0] = exact_potential(p, members, k0, cfg);
}
#endif

/// True when potentials() may take the AVX2 tile kernel; decided once.
inline bool has_avx2() {
#ifdef COSMO_CENTER_AVX2
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
#else
  return false;
#endif
}

/// φ of every member, elementwise: on the AVX2 host in tiles of four
/// targets, elsewhere one exact_potential per target. A chunk holds four
/// tiles (16 targets) so small halos amortize their dispatch, and one tile
/// from 8192 members up so the pool spreads a monster over every worker
/// while small-halo tasks fill the gaps. φ is elementwise, so the chunking
/// never changes a value.
inline std::vector<double> potentials(dpp::Backend backend,
                                      const sim::ParticleSet& p,
                                      std::span<const std::uint32_t> members,
                                      const CenterConfig& cfg) {
  const std::size_t n = members.size();
  const std::size_t tiles_per_chunk = n >= 8192 ? 1 : 4;
  std::vector<double> phi(n);
#ifdef COSMO_CENTER_AVX2
  if (has_avx2()) {
    dpp::for_each_chunk(
        backend, (n + 3) / 4,
        [&](std::size_t lo, std::size_t hi) {
          potentials_avx2(p, members, 4 * lo, std::min(4 * hi, n), cfg, phi);
        },
        tiles_per_chunk);
    return phi;
  }
#endif
  dpp::tabulate<double>(
      backend, phi,
      [&](std::size_t k) { return exact_potential(p, members, k, cfg); },
      4 * tiles_per_chunk);
  return phi;
}

}  // namespace detail

/// Brute-force O(n²) MBP center — the PISTON/data-parallel implementation.
/// Potentials for all members are computed in parallel on the chosen
/// backend; the minimum is taken with a deterministic tie-break (lowest
/// member index, i.e. the order in `members`).
inline CenterResult mbp_center_brute(dpp::Backend backend,
                                     const sim::ParticleSet& p,
                                     std::span<const std::uint32_t> members,
                                     const CenterConfig& cfg = {}) {
  COSMO_REQUIRE(!members.empty(), "center of an empty halo");
  const std::size_t n = members.size();
  const std::vector<double> phi = detail::potentials(backend, p, members, cfg);
  const std::size_t best =
      dpp::argmin(backend, n, [&](std::size_t k) { return phi[k]; });
  CenterResult r;
  r.member_index = static_cast<std::uint32_t>(best);
  r.particle = members[best];
  r.potential = phi[best];
  r.exact_evaluations = n;
  return r;
}

/// A*-style MBP center. A k-d tree over the halo provides, for each
/// particle, an optimistic (lower) bound on its potential:
///     φ_lb(i) = Σ_nodes −count(node) / max(dmin(i, node), ε̃)
/// descending only where the bound is loose. Particles are then expanded
/// best-first by bound; each expansion computes one exact O(n) potential.
/// The search stops when the best exact potential is ≤ the smallest
/// remaining bound — at that point no unexpanded particle can win.
inline CenterResult mbp_center_astar(const sim::ParticleSet& p,
                                     std::span<const std::uint32_t> members,
                                     const CenterConfig& cfg = {},
                                     double open_angle = 1.2) {
  COSMO_REQUIRE(!members.empty(), "center of an empty halo");
  const std::size_t n = members.size();
  Periodicity per = cfg.box > 0.0 ? Periodicity::all(cfg.box) : Periodicity{};
  KdTree tree(p, std::vector<std::uint32_t>(members.begin(), members.end()),
              per);

  // Phase 1: optimistic bound per member.
  std::vector<double> bound(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = members[k];
    const double qx = p.x[i], qy = p.y[i], qz = p.z[i];
    double lb = 0.0;
    tree.traverse(
        qx, qy, qz,
        [&](std::int32_t id, double dmin2, double) -> int {
          const auto& nd = tree.node(id);
          const double diam2 =
              (nd.hi[0] - nd.lo[0]) * (nd.hi[0] - nd.lo[0]) +
              (nd.hi[1] - nd.lo[1]) * (nd.hi[1] - nd.lo[1]) +
              (nd.hi[2] - nd.lo[2]) * (nd.hi[2] - nd.lo[2]);
          // Accept when the node is far enough that the bound is tight.
          if (diam2 < open_angle * open_angle * dmin2) return 1;
          return 2;  // descend (leaves are handled in leaf_fn)
        },
        [&](const KdTree::Node& nd, bool whole) {
          if (whole) {
            double dmin2, dmax2;
            tree.box_dist2(nd, qx, qy, qz, dmin2, dmax2);
            const double dmin = std::sqrt(dmin2);
            lb -= static_cast<double>(nd.count()) / (dmin + cfg.softening);
          } else {
            for (std::uint32_t t = nd.begin; t < nd.end; ++t) {
              const std::uint32_t j = tree.index()[t];
              if (j == i) continue;
              const double d = std::sqrt(
                  tree.point_dist2(qx, qy, qz, p.x[j], p.y[j], p.z[j]));
              lb -= 1.0 / (d + cfg.softening);
            }
          }
        });
    bound[k] = lb;
  }

  // Phase 2: best-first exact evaluation.
  using Entry = std::pair<double, std::uint32_t>;  // (bound, member index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  for (std::size_t k = 0; k < n; ++k)
    open.emplace(bound[k], static_cast<std::uint32_t>(k));

  CenterResult r;
  double best_phi = std::numeric_limits<double>::max();
  std::uint32_t best_k = 0;
  std::uint64_t evals = 0;
  while (!open.empty()) {
    const auto [lb, k] = open.top();
    if (best_phi <= lb) break;  // nothing left can beat the incumbent
    open.pop();
    const double phi = detail::exact_potential(p, members, k, cfg);
    ++evals;
    if (phi < best_phi || (phi == best_phi && k < best_k)) {
      best_phi = phi;
      best_k = k;
    }
  }
  r.member_index = best_k;
  r.particle = members[best_k];
  r.potential = best_phi;
  r.exact_evaluations = evals;
  return r;
}

/// Fills p.phi for all members with exact potentials (used by analysis
/// outputs that persist the potential, e.g. for SO seeding).
inline void fill_potentials(dpp::Backend backend, sim::ParticleSet& p,
                            std::span<const std::uint32_t> members,
                            const CenterConfig& cfg = {}) {
  const std::vector<double> phi = detail::potentials(backend, p, members, cfg);
  for (std::size_t k = 0; k < members.size(); ++k)
    p.phi[members[k]] = static_cast<float>(phi[k]);
}

}  // namespace cosmo::halo
