// Halo center finding — Most Bound Particle (MBP) definition (§3.3.2).
//
// The center is the particle minimizing the potential
//     φ(i) = Σ_{j≠i} −m_j / (d_ij + ε),
// with a small softening ε guarding against coincident particles.
// mbp_center, the one entry point, picks one of two finders from the member
// count alone; both return the same member, particle and φ bits, with ties
// broken to the lowest member index:
//
//  * mbp_center_brute — the PISTON version: O(n²) potentials + argmin, each
//                       pair once, one task per halo, parallel across
//                       halos. On a CPU with AVX2 a symmetric tile kernel
//                       computes each unordered pair's term once and
//                       subtracts it from both members' sums, in
//                       exact_potential's order, so φ is bit-identical to
//                       the scalar sum on every host; elsewhere the pool
//                       tabulates exact_potential.
//  * mbp_center_astar — the paper's A* search (reported ~8x faster than
//                       serial brute force), certified and pooled. One pool
//                       dispatch bounds every member's φ from below: per
//                       leaf of targets of a k-d tree built on the members'
//                       positions alone, one walk accepts source nodes far
//                       from the whole leaf into a far-field term the
//                       leaf's targets share, and sums the near-field leaves
//                       exactly from the tree's own copy of the positions,
//                       16 bytes a member. Two more dispatches run the
//                       target-list tile kernel: a seed batch of the
//                       lowest bounds, then every member whose bound, less
//                       δ, does not exceed the seeds' best φ. δ bounds the
//                       rounding of both sums, so a skipped member's φ is
//                       strictly above brute force's minimum.
//
// All distances use the periodic minimum image; halos are compact, so this
// is exact for any halo smaller than half the box.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "dpp/primitives.h"
#include "halo/kdtree.h"
#include "obs/obs.h"
#include "sim/particles.h"
#include "util/error.h"

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

/// Member count from which mbp_center runs the A* instead of brute force.
/// ablation_center_finders measures both on the generator's NFW profile.
/// On one thread each, as the callers' per-halo fan-out runs brute force
/// on a busy pool, the A* draws level at about 8,000 members
/// (EXPERIMENTS.md, "cosmobench — each brute-force pair once"). Pooled on
/// an idle pool it wins from about 3,000, but no workflow centres a lone
/// brute-force-sized halo; below the cut-off a halo keeps brute force's one
/// task, where the A* would make four to ten pool dispatches.
inline constexpr std::size_t kAStarMinMembers = 8192;

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

#ifdef COSMO_HALO_AVX2
/// A tile's broadcast constants. box 0 turns both of fold_avx2's selects
/// into exact no-ops: fold()'s non-periodic case.
struct TileFrame {
  __m256d box, half, neg_half, eps;
};

__attribute__((target("avx2"))) inline TileFrame tile_frame(
    const CenterConfig& cfg) {
  const double box = cfg.box > 0.0 ? cfg.box : 0.0;
  return {_mm256_set1_pd(box), _mm256_set1_pd(0.5 * box),
          _mm256_set1_pd(-0.5 * box), _mm256_set1_pd(cfg.softening)};
}

/// Lane l: 1/(d + ε) between target l at (xi, yi, zi) and one source at
/// (xj, yj, zj), in exact_potential's operations (fold, d² as x + y + z,
/// sqrt, + ε, 1/…).
__attribute__((target("avx2"))) inline __m256d terms_avx2(
    __m256d xi, __m256d yi, __m256d zi, float xj, float yj, float zj,
    const TileFrame& f) {
  const __m256d dx = fold_avx2(_mm256_sub_pd(xi, _mm256_set1_pd(xj)), f.box,
                               f.half, f.neg_half);
  const __m256d dy = fold_avx2(_mm256_sub_pd(yi, _mm256_set1_pd(yj)), f.box,
                               f.half, f.neg_half);
  const __m256d dz = fold_avx2(_mm256_sub_pd(zi, _mm256_set1_pd(zj)), f.box,
                               f.half, f.neg_half);
  const __m256d d2 = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
      _mm256_mul_pd(dz, dz));
  return _mm256_div_pd(_mm256_set1_pd(1.0),
                       _mm256_add_pd(_mm256_sqrt_pd(d2), f.eps));
}

/// The target-list tile kernel, for the A*'s batches:
/// phi[t] = exact_potential(p, members, targets[t], cfg) for every t, bit
/// for bit, with targets any list of member indices. Each whole tile of
/// four targets loads its targets once and streams every source from the
/// particle set through `members`, so no per-halo copy is made. Lane l sums
/// m = 0..n−1 in member order; at each of the tile's targets, in member
/// order, the lanes whose self pair it is subtract a masked +0.0, an exact
/// no-op. A short last tile falls back to exact_potential.
__attribute__((target("avx2"))) inline void potentials_avx2(
    const sim::ParticleSet& p, std::span<const std::uint32_t> members,
    std::span<const std::uint32_t> targets, const CenterConfig& cfg,
    std::span<double> phi) {
  const std::size_t n = members.size();
  const float* px = p.x.data();
  const float* py = p.y.data();
  const float* pz = p.z.data();
  const TileFrame f = tile_frame(cfg);
  std::size_t t0 = 0;
  for (; t0 + 4 <= targets.size(); t0 += 4) {
    const std::uint32_t* k = targets.data() + t0;
    const std::uint32_t i[4] = {members[k[0]], members[k[1]], members[k[2]],
                                members[k[3]]};
    const __m256d xi = _mm256_setr_pd(px[i[0]], px[i[1]], px[i[2]], px[i[3]]);
    const __m256d yi = _mm256_setr_pd(py[i[0]], py[i[1]], py[i[2]], py[i[3]]);
    const __m256d zi = _mm256_setr_pd(pz[i[0]], pz[i[1]], pz[i[2]], pz[i[3]]);
    const __m256i self = _mm256_setr_epi64x(k[0], k[1], k[2], k[3]);
    // The tile's targets in member order, then a sentinel no m reaches.
    std::array<std::uint64_t, 5> stops = {
        k[0], k[1], k[2], k[3], std::numeric_limits<std::uint64_t>::max()};
    std::sort(stops.begin(), stops.begin() + 4);
    std::size_t next = 0;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t m = 0; m < n; ++m) {
      const std::uint32_t j = members[m];
      __m256d term = terms_avx2(xi, yi, zi, px[j], py[j], pz[j], f);
      if (m == stops[next]) {  // m is one of this tile's own targets
        term = _mm256_andnot_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                self, _mm256_set1_epi64x(static_cast<long long>(m)))),
            term);
        while (stops[next] == m) ++next;  // a target may be listed twice
      }
      acc = _mm256_sub_pd(acc, term);
    }
    _mm256_storeu_pd(phi.data() + t0, acc);
  }
  for (; t0 < targets.size(); ++t0)
    phi[t0] = exact_potential(p, members, targets[t0], cfg);
}

/// The symmetric tile kernel: phi[k] = exact_potential(p, members, k, cfg)
/// for every member k, bit for bit, with each unordered pair's term
/// computed once. Members form blocks of four in member order. Block b's
/// lanes start from phi[b..b+3], which by then holds the transposed tiles
/// of every earlier block; they subtract the diagonal tile with each self
/// term masked to +0.0, then each later block's tile column by column in
/// member order, whose transpose goes to that block's phi in the same
/// order; then the n mod 4 tail sources, in order. So every φ[k] is summed
/// over m = 0..n−1 in member order, as exact_potential sums it, and the
/// term of (m, k) is the same bits as that of (k, m): rounding to nearest
/// gives fl(a − b) = −fl(b − a), and fold is odd. The tail targets run
/// exact_potential. Positions are read through `members` from the particle
/// set: nothing is copied per halo.
__attribute__((target("avx2"))) inline void potentials_symmetric_avx2(
    const sim::ParticleSet& p, std::span<const std::uint32_t> members,
    const CenterConfig& cfg, std::span<double> phi) {
  const std::size_t n = members.size();
  const std::size_t whole = n - n % 4;  // members in whole blocks
  const float* px = p.x.data();
  const float* py = p.y.data();
  const float* pz = p.z.data();
  const TileFrame f = tile_frame(cfg);
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  std::fill(phi.begin(), phi.begin() + static_cast<std::ptrdiff_t>(whole),
            0.0);
  for (std::size_t b = 0; b < whole; b += 4) {
    const std::uint32_t* i = members.data() + b;
    const __m256d xi = _mm256_setr_pd(px[i[0]], px[i[1]], px[i[2]], px[i[3]]);
    const __m256d yi = _mm256_setr_pd(py[i[0]], py[i[1]], py[i[2]], py[i[3]]);
    const __m256d zi = _mm256_setr_pd(pz[i[0]], pz[i[1]], pz[i[2]], pz[i[3]]);
    __m256d acc = _mm256_loadu_pd(phi.data() + b);
    for (long long s = 0; s < 4; ++s) {  // source b + s is lane s's own
      const std::uint32_t j = i[s];
      const __m256d self = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(lane, _mm256_set1_epi64x(s)));
      acc = _mm256_sub_pd(
          acc, _mm256_andnot_pd(
                   self, terms_avx2(xi, yi, zi, px[j], py[j], pz[j], f)));
    }
    for (std::size_t c = b + 4; c < whole; c += 4) {
      const std::uint32_t* j = members.data() + c;
      // Lane l of t0..t3: the term of target b + l and source c + 0..3.
      const __m256d t0 =
          terms_avx2(xi, yi, zi, px[j[0]], py[j[0]], pz[j[0]], f);
      const __m256d t1 =
          terms_avx2(xi, yi, zi, px[j[1]], py[j[1]], pz[j[1]], f);
      const __m256d t2 =
          terms_avx2(xi, yi, zi, px[j[2]], py[j[2]], pz[j[2]], f);
      const __m256d t3 =
          terms_avx2(xi, yi, zi, px[j[3]], py[j[3]], pz[j[3]], f);
      acc = _mm256_sub_pd(acc, t0);
      acc = _mm256_sub_pd(acc, t1);
      acc = _mm256_sub_pd(acc, t2);
      acc = _mm256_sub_pd(acc, t3);
      // The transpose, one row per source b + l in order: lane s holds
      // the term of target c + s and source b + l.
      const __m256d lo01 = _mm256_unpacklo_pd(t0, t1);
      const __m256d hi01 = _mm256_unpackhi_pd(t0, t1);
      const __m256d lo23 = _mm256_unpacklo_pd(t2, t3);
      const __m256d hi23 = _mm256_unpackhi_pd(t2, t3);
      __m256d col = _mm256_loadu_pd(phi.data() + c);
      col = _mm256_sub_pd(col, _mm256_permute2f128_pd(lo01, lo23, 0x20));
      col = _mm256_sub_pd(col, _mm256_permute2f128_pd(hi01, hi23, 0x20));
      col = _mm256_sub_pd(col, _mm256_permute2f128_pd(lo01, lo23, 0x31));
      col = _mm256_sub_pd(col, _mm256_permute2f128_pd(hi01, hi23, 0x31));
      _mm256_storeu_pd(phi.data() + c, col);
    }
    for (std::size_t m = whole; m < n; ++m) {
      const std::uint32_t j = members[m];
      acc = _mm256_sub_pd(acc,
                          terms_avx2(xi, yi, zi, px[j], py[j], pz[j], f));
    }
    _mm256_storeu_pd(phi.data() + b, acc);
  }
  for (std::size_t k = whole; k < n; ++k)
    phi[k] = exact_potential(p, members, k, cfg);
}
#endif

/// φ of each listed member (phi[t] for targets[t]), elementwise: the A*'s
/// seed and sweep batches, and every member on a host without AVX2. On the
/// AVX2 host in tiles of four targets, elsewhere one exact_potential per
/// target. A chunk holds four tiles (16 targets) so small halos amortize
/// their dispatch, and one tile from 8192 members up so the pool spreads a
/// monster over every worker while small-halo tasks fill the gaps. φ is
/// elementwise, so the chunking never changes a value.
inline std::vector<double> potentials(dpp::Backend backend,
                                      const sim::ParticleSet& p,
                                      std::span<const std::uint32_t> members,
                                      std::span<const std::uint32_t> targets,
                                      const CenterConfig& cfg) {
  const std::size_t n = members.size();
  const std::size_t count = targets.size();
  const std::size_t tiles_per_chunk = n >= 8192 ? 1 : 4;
  std::vector<double> phi(count);
#ifdef COSMO_HALO_AVX2
  if (has_avx2()) {
    dpp::for_each_chunk(
        backend, (count + 3) / 4,
        [&](std::size_t lo, std::size_t hi) {
          const std::size_t t = 4 * lo, len = std::min(4 * hi, count) - t;
          potentials_avx2(p, members, targets.subspan(t, len), cfg,
                          std::span(phi).subspan(t, len));
        },
        tiles_per_chunk);
    return phi;
  }
#endif
  dpp::tabulate<double>(
      backend, phi,
      [&](std::size_t t) {
        return exact_potential(p, members, targets[t], cfg);
      },
      4 * tiles_per_chunk);
  return phi;
}

/// φ of every member. On the AVX2 host the symmetric tile kernel runs on
/// the calling thread: a halo's sums are sequential, so its parallelism is
/// the per-halo fan-out of its callers (CenterFinderAlgorithm::Execute and
/// analyze_level2 run one pool task per halo, largest first). Elsewhere the
/// pool tabulates exact_potential.
inline std::vector<double> potentials(dpp::Backend backend,
                                      const sim::ParticleSet& p,
                                      std::span<const std::uint32_t> members,
                                      const CenterConfig& cfg) {
#ifdef COSMO_HALO_AVX2
  if (has_avx2()) {
    std::vector<double> phi(members.size());
    potentials_symmetric_avx2(p, members, cfg, phi);
    return phi;
  }
#endif
  std::vector<std::uint32_t> all(members.size());
  std::iota(all.begin(), all.end(), 0u);
  return potentials(backend, p, members, all, cfg);
}

/// Leaf size of the A*'s k-d tree: its near-field blocks are this many
/// targets against this many sources.
inline constexpr std::size_t kBoundLeafSize = 8;

/// lb[k] ≤ exact_potential(p, members, k, cfg) + bound_slack(lb[k], n) for
/// every member k, from one pool dispatch over the leaves of a k-d tree on
/// the halo. For target leaf T, one walk from the root accepts a source
/// node S when diam(T) + diam(S) < 2·dmin(T, S): S then holds none of T's
/// targets, and −count(S)/(dmin + ε) bounds the sum of S's terms for every
/// target in T, because kdtree.h's node bound never exceeds a pair's
/// distance, bit for bit. Every leaf the walk reaches unaccepted is near
/// field, summed term by term in exact_potential's operations from the
/// tree's copy of the positions. Each leaf's bounds depend only on the
/// tree, so they are the same bits on every backend.
inline std::vector<double> potential_bounds(
    dpp::Backend backend, const sim::ParticleSet& p,
    std::span<const std::uint32_t> members, const CenterConfig& cfg) {
  const std::size_t n = members.size();
  // The halo's positions, with member indices as the tree's ids.
  std::vector<KdTree::Point> halo(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t i = members[k];
    halo[k] = {{p.x[i], p.y[i], p.z[i]}, k};
  }
  const KdTree tree(
      std::move(halo),
      cfg.box > 0.0 ? Periodicity::all(cfg.box) : Periodicity{},
      kBoundLeafSize, backend);
  const auto pts = tree.points();
  std::vector<double> diam(tree.node_count());
  std::vector<std::int32_t> leaves;
  for (std::size_t id = 0; id < diam.size(); ++id) {
    const KdTree::Node& nd = tree.node(static_cast<std::int32_t>(id));
    const double ex = nd.hi[0] - nd.lo[0], ey = nd.hi[1] - nd.lo[1],
                 ez = nd.hi[2] - nd.lo[2];
    diam[id] = std::sqrt(ex * ex + ey * ey + ez * ez);
    if (nd.leaf()) leaves.push_back(static_cast<std::int32_t>(id));
  }

  std::vector<double> lb(n);
  dpp::for_each_index(backend, leaves.size(), [&](std::size_t li) {
    const KdTree::Node& T = tree.node(leaves[li]);
    const double diam_t = diam[static_cast<std::size_t>(leaves[li])];
    double far = 0.0;
    std::array<double, kBoundLeafSize> near{};
    // A walk's pending nodes: one sibling per level of a tree at most 32
    // deep (n < 2³²), plus the node in hand.
    std::array<std::int32_t, 64> stack{};
    std::size_t top = 0;
    stack[top++] = tree.root();
    while (top != 0) {
      const std::int32_t id = stack[--top];
      const KdTree::Node& S = tree.node(id);
      double dmin2, dmax2;
      tree.node_dist2(T, S, dmin2, dmax2);
      const double dmin = std::sqrt(dmin2);
      if (diam_t + diam[static_cast<std::size_t>(id)] < 2.0 * dmin) {
        far -= static_cast<double>(S.count()) / (dmin + cfg.softening);
        continue;
      }
      if (!S.leaf()) {
        stack[top++] = S.right;
        stack[top++] = S.left;
        continue;
      }
      for (std::uint32_t a = T.begin; a < T.end; ++a) {
        const double xi = pts[a].c[0], yi = pts[a].c[1], zi = pts[a].c[2];
        double& phi = near[a - T.begin];
        for (std::uint32_t b = S.begin; b < S.end; ++b) {
          if (b == a) continue;
          const double dx = fold(xi - pts[b].c[0], cfg.box);
          const double dy = fold(yi - pts[b].c[1], cfg.box);
          const double dz = fold(zi - pts[b].c[2], cfg.box);
          const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
          phi -= 1.0 / (d + cfg.softening);
        }
      }
    }
    for (std::uint32_t a = T.begin; a < T.end; ++a)
      lb[pts[a].id] = far + near[a - T.begin];
  });
  return lb;
}

/// δ, the rounding slack of the A*'s stop test, for a member with bound lb
/// in a halo of n members. lb and exact_potential each add at most n − 1
/// pieces of one sign, so in any order of addition each sum rounds by less
/// than (n − 2)·u of its magnitude, u = 2⁻⁵³, to first order. A near-field
/// piece is an exact term, operation for operation; a far-field piece is
/// at least the exact terms it replaces times (1 − 2u). So exact_potential
/// ≥ lb − 2n·u·|lb| to first order; δ doubles that, which also covers the
/// second-order terms.
inline double bound_slack(double lb, std::size_t n) {
  return 4.0 * static_cast<double>(n) * 0x1p-53 * -lb;
}

/// Targets in the A*'s seed batch: the lowest bounds, four tiles.
inline constexpr std::size_t kAStarSeeds = 16;

}  // namespace detail

/// Brute-force O(n²) MBP center — the PISTON implementation: every
/// member's potential (detail::potentials: each pair once on the calling
/// thread on an AVX2 host, a pooled tabulate elsewhere), then the first
/// minimum in member order, on the calling thread: among equal potentials
/// the lowest member index wins.
inline CenterResult mbp_center_brute(dpp::Backend backend,
                                     const sim::ParticleSet& p,
                                     std::span<const std::uint32_t> members,
                                     const CenterConfig& cfg = {}) {
  COSMO_REQUIRE(!members.empty(), "center of an empty halo");
  const std::size_t n = members.size();
  const std::vector<double> phi = detail::potentials(backend, p, members, cfg);
  const auto best = static_cast<std::size_t>(
      std::min_element(phi.begin(), phi.end()) - phi.begin());
  CenterResult r;
  r.member_index = static_cast<std::uint32_t>(best);
  r.particle = members[best];
  r.potential = phi[best];
  r.exact_evaluations = n;
  return r;
}

/// Certified A* MBP center, in three pool dispatches after the tree build:
/// the bounds (detail::potential_bounds), the exact φ of the kAStarSeeds
/// lowest bounds, and the exact φ of every other member k with
/// lb[k] − δ ≤ best, where best is the seeds' minimum φ. A member skipped
/// there has φ ≥ lb − δ > best, so it is not brute force's minimum, and
/// the evaluated members hold every member that ties it; the lowest-index
/// tie-break then returns mbp_center_brute's member and φ bits.
inline CenterResult mbp_center_astar(dpp::Backend backend,
                                     const sim::ParticleSet& p,
                                     std::span<const std::uint32_t> members,
                                     const CenterConfig& cfg = {}) {
  COSMO_REQUIRE(!members.empty(), "center of an empty halo");
  const std::size_t n = members.size();
  const std::vector<double> lb =
      detail::potential_bounds(backend, p, members, cfg);

  CenterResult r;
  r.potential = std::numeric_limits<double>::infinity();
  auto take = [&](std::span<const std::uint32_t> targets,
                  const std::vector<double>& phi) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::uint32_t k = targets[t];
      if (phi[t] < r.potential ||
          (phi[t] == r.potential && k < r.member_index)) {
        r.potential = phi[t];
        r.member_index = k;
      }
    }
    r.exact_evaluations += targets.size();
  };

  std::vector<std::uint32_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0u);
  const std::size_t s = std::min(n, detail::kAStarSeeds);
  std::nth_element(seeds.begin(), seeds.begin() + (s - 1), seeds.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lb[a] < lb[b];
                   });
  seeds.resize(s);
  take(seeds, detail::potentials(backend, p, members, seeds, cfg));

  std::vector<char> seeded(n, 0);
  for (const std::uint32_t k : seeds) seeded[k] = 1;
  const double best = r.potential;
  std::vector<std::uint32_t> sweep;
  for (std::uint32_t k = 0; k < n; ++k)
    if (!seeded[k] && !(lb[k] - detail::bound_slack(lb[k], n) > best))
      sweep.push_back(k);
  take(sweep, detail::potentials(backend, p, members, sweep, cfg));

  r.particle = members[r.member_index];
  return r;
}

/// The MBP center: A* from kAStarMinMembers members up, brute force below.
/// Both return the same result; the count of exact φ sums is traced as
/// halo.center_evals.
inline CenterResult mbp_center(dpp::Backend backend,
                               const sim::ParticleSet& p,
                               std::span<const std::uint32_t> members,
                               const CenterConfig& cfg = {}) {
  const CenterResult r = members.size() >= kAStarMinMembers
                             ? mbp_center_astar(backend, p, members, cfg)
                             : mbp_center_brute(backend, p, members, cfg);
  COSMO_COUNT("halo.center_evals", r.exact_evaluations);
  return r;
}

}  // namespace cosmo::halo
