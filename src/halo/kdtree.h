// Balanced k-d tree over particle positions.
//
// The workhorse of the FOF halo finder (§3.3.1): built once per rank over
// the owned+overload particle set. The tree keeps its own copy of the
// positions, one Point {x, y, z, id} per particle in tree order: position k
// holds the coordinates of the point whose id is index()[k]. It builds by
// median selection over that copy, and every query and pair test reads
// coordinates from it, a leaf's contiguously, never from the particle set.
// Nodes are numbered in preorder and each covers a contiguous range of tree
// positions, so the leaves in preorder tile [0, size()) in ascending order.
// Two bounds drive every query, both from one per-axis interval–interval
// bound (a point is a zero-width interval):
// - box_dist2, point–node: range queries and k-nearest neighbours (the
//   subhalo finder's density estimates);
// - node_dist2, node–node: the per-leaf walks of the FOF linker, which
//   prunes a node farther than the linking length from a whole leaf and
//   unites a node nearer than it with the leaf outright, and of the A*
//   centre finder, whose far-field bound divides by a node's distance.
// The bounds are exact, not approximate. Along an axis IEEE rounding is
// monotone, so differences of the interval ends bracket every coordinate
// difference across the two intervals. The periodic images shift by ±box;
// double arithmetic forms those sums exactly for float coordinates not
// below 2⁻²⁹ of a box that is itself a float (24 significant bits against
// 53). Squares and their sum, in dist2's order, round monotonically too, so
// dmin2 ≤ dist2(i, j) ≤ dmax2 holds bit for bit for every pair the two
// boxes cover. x/y can be periodic (slab decomposition leaves z
// non-periodic with unwrapped ghosts).
//
// fold_avx2 is fold() on four lanes, for the pair kernels of the FOF linker
// (fof.h) and the MBP centre finder (center_finder.h); has_avx2 decides once
// whether the host may run them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "dpp/primitives.h"
#include "sim/particles.h"
#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define COSMO_HALO_AVX2 1
#endif

namespace cosmo::halo {

/// Periodicity flags per dimension for distance computations.
struct Periodicity {
  bool x = false, y = false, z = false;
  double box = 0.0;  ///< required if any flag is set

  static Periodicity none() { return {}; }
  static Periodicity xy(double box) { return {true, true, false, box}; }
  static Periodicity all(double box) { return {true, true, true, box}; }
};

class KdTree {
 public:
  /// One position of the tree's copy: coordinates and the caller's id.
  struct Point {
    float c[3];
    std::uint32_t id;
  };

  /// Builds over caller-made points; index() then lists their ids in tree
  /// order. On the ThreadPool backend the two children of every node above
  /// kParallelBuildCutoff points build as concurrent pool tasks; node ids
  /// are assigned from a precomputed preorder numbering (the tree shape is
  /// a pure function of size and leaf_size), so the node array and index()
  /// layout are backend-invariant.
  explicit KdTree(std::vector<Point> points, const Periodicity& per = {},
                  std::size_t leaf_size = 8,
                  dpp::Backend backend = dpp::Backend::Serial)
      : per_(per),
        leaf_size_(leaf_size),
        backend_(backend),
        points_(std::move(points)),
        index_(points_.size()) {
    COSMO_REQUIRE(!(per.x || per.y || per.z) || per.box > 0.0,
                  "periodic tree needs a box size");
    COSMO_REQUIRE(leaf_size >= 1, "leaf size must be at least 1");
    if (!points_.empty()) {
      // Memoises every subtree size reachable from n (≤ 2 new per level),
      // so build_at only reads the table — safe under concurrent builds.
      nodes_.resize(count_subtree_nodes(points_.size()));
      build_at(0, 0, points_.size());
      root_ = 0;
    }
  }

  /// Builds over the particles of `p` listed in `subset`; their particle
  /// indices are the ids.
  KdTree(const sim::ParticleSet& p, std::span<const std::uint32_t> subset,
         const Periodicity& per = {}, std::size_t leaf_size = 8,
         dpp::Backend backend = dpp::Backend::Serial)
      : KdTree(gather(p, subset.size(),
                      [&](std::size_t k) { return subset[k]; }),
               per, leaf_size, backend) {}

  /// Convenience: tree over all particles.
  static KdTree over_all(const sim::ParticleSet& p,
                         const Periodicity& per = {},
                         std::size_t leaf_size = 8,
                         dpp::Backend backend = dpp::Backend::Serial) {
    return KdTree(gather(p, p.size(),
                         [](std::size_t k) {
                           return static_cast<std::uint32_t>(k);
                         }),
                  per, leaf_size, backend);
  }

  /// Children of nodes at least this large build as concurrent pool tasks.
  static constexpr std::size_t kParallelBuildCutoff = 2048;

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Periodicity& periodicity() const { return per_; }
  std::size_t node_count() const { return nodes_.size(); }
  /// The points' ids in tree order; node ranges refer to this array.
  std::span<const std::uint32_t> index() const { return index_; }
  /// The tree's copy of the positions: points()[k].id == index()[k].
  std::span<const Point> points() const { return points_; }

  struct Node {
    float lo[3], hi[3];        ///< bounding box of the subtree's points
    std::uint32_t begin, end;  ///< range of tree positions
    std::int32_t left = -1, right = -1;
    bool leaf() const { return left < 0; }
    std::uint32_t count() const { return end - begin; }
  };

  const Node& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  std::int32_t root() const { return root_; }

  /// Calls fn(id) for every point within radius r of (qx,qy,qz).
  template <typename Fn>
  void for_each_in_range(double qx, double qy, double qz, double r,
                         Fn&& fn) const {
    if (root_ < 0) return;
    range_recurse(root_, qx, qy, qz, r * r, fn);
  }

  /// Squared min/max distance from a query point to a node's bounding box,
  /// respecting periodic dimensions.
  void box_dist2(const Node& n, double qx, double qy, double qz, double& dmin2,
                 double& dmax2) const {
    const double q[3] = {qx, qy, qz};
    double dmin[3], dmax[3];
    for (int d = 0; d < 3; ++d)
      axis_dist(q[d], q[d], n.lo[d], n.hi[d], wraps(d), dmin[d], dmax[d]);
    dmin2 = dmin[0] * dmin[0] + dmin[1] * dmin[1] + dmin[2] * dmin[2];
    dmax2 = dmax[0] * dmax[0] + dmax[1] * dmax[1] + dmax[2] * dmax[2];
  }

  /// Squared min/max distance between any point of a's bounding box and any
  /// point of b's, respecting periodic dimensions.
  void node_dist2(const Node& a, const Node& b, double& dmin2,
                  double& dmax2) const {
    double dmin[3], dmax[3];
    for (int d = 0; d < 3; ++d)
      axis_dist(a.lo[d], a.hi[d], b.lo[d], b.hi[d], wraps(d), dmin[d],
                dmax[d]);
    dmin2 = dmin[0] * dmin[0] + dmin[1] * dmin[1] + dmin[2] * dmin[2];
    dmax2 = dmax[0] * dmax[0] + dmax[1] * dmax[1] + dmax[2] * dmax[2];
  }

  /// Squared distance between the points at tree positions a and b under
  /// the periodicity.
  double dist2(std::uint32_t a, std::uint32_t b) const {
    const Point& pa = points_[a];
    const Point& pb = points_[b];
    return point_dist2(pa.c[0], pa.c[1], pa.c[2], pb.c[0], pb.c[1], pb.c[2]);
  }

  double point_dist2(double ax, double ay, double az, double bx, double by,
                     double bz) const {
    const double dx = fold(ax - bx, per_.x);
    const double dy = fold(ay - by, per_.y);
    const double dz = fold(az - bz, per_.z);
    return dx * dx + dy * dy + dz * dz;
  }

  /// Ids of the k nearest neighbors of (qx,qy,qz) (possibly including a
  /// point at the query point itself), nearest first; none for k = 0.
  std::vector<std::uint32_t> k_nearest(double qx, double qy, double qz,
                                       std::size_t k) const {
    // Max-heap of (dist2, id) keeps the k best seen so far.
    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry> heap;
    if (root_ >= 0 && k > 0) knn_recurse(root_, qx, qy, qz, k, heap);
    std::vector<std::uint32_t> out(heap.size());
    for (std::size_t i = out.size(); i-- > 0;) {
      out[i] = heap.top().second;
      heap.pop();
    }
    return out;
  }

 private:
  bool wraps(int d) const {
    return d == 0 ? per_.x : d == 1 ? per_.y : per_.z;
  }

  /// Min/max of |a − b| over a ∈ [alo, ahi], b ∈ [blo, bhi] along one axis.
  /// For a point (alo == ahi == q) every operation is the one the point
  /// bound always used: lo − q, q − hi, max(q − lo, hi − q).
  void axis_dist(double alo, double ahi, double blo, double bhi, bool periodic,
                 double& dmin, double& dmax) const {
    dmin = gap(alo, ahi, blo, bhi);
    dmax = std::max(ahi - blo, bhi - alo);
    if (periodic) {
      const double L = per_.box;
      // Nearest periodic image of the interval gives the true lower bound;
      // the direct max capped at L/2 stays a valid upper bound (periodic
      // distance never exceeds half the box per axis).
      dmin = std::min({dmin, gap(alo + L, ahi + L, blo, bhi),
                       gap(alo - L, ahi - L, blo, bhi)});
      dmax = std::min(dmax, 0.5 * L);
    }
  }

  /// Distance between two intervals; 0 when they overlap.
  static double gap(double alo, double ahi, double blo, double bhi) {
    if (ahi < blo) return blo - ahi;
    if (alo > bhi) return alo - bhi;
    return 0.0;
  }

  double fold(double d, bool periodic) const {
    if (!periodic) return d;
    const double L = per_.box;
    if (d > 0.5 * L) d -= L;
    if (d < -0.5 * L) d += L;
    return d;
  }

  /// Points for the particles id(0), …, id(n − 1) of `p`.
  template <typename Id>
  static std::vector<Point> gather(const sim::ParticleSet& p, std::size_t n,
                                   Id id) {
    std::vector<Point> pts(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t i = id(k);
      pts[k] = {{p.x[i], p.y[i], p.z[i]}, i};
    }
    return pts;
  }

  /// Node count of a subtree over `count` points — a pure function of
  /// (count, leaf_size) because the split point is always count/2.
  std::size_t count_subtree_nodes(std::size_t count) {
    const auto it = subtree_count_.find(count);
    if (it != subtree_count_.end()) return it->second;
    std::size_t total = 1;
    if (count > leaf_size_) {
      const std::size_t left = count / 2;
      total += count_subtree_nodes(left) + count_subtree_nodes(count - left);
    }
    subtree_count_.emplace(count, total);
    return total;
  }

  /// Builds the subtree over points_[begin, end) at preorder slot `id`:
  /// the left child lands at id+1, the right child after the whole left
  /// subtree — the same numbering a serial preorder push_back produces.
  /// Sibling subtrees touch disjoint node, points_ and index_ ranges, so
  /// they can build concurrently without synchronisation.
  void build_at(std::int32_t id, std::size_t begin, std::size_t end) {
    Node n;
    n.begin = static_cast<std::uint32_t>(begin);
    n.end = static_cast<std::uint32_t>(end);
    // Bounding box of the range.
    for (int d = 0; d < 3; ++d) {
      n.lo[d] = std::numeric_limits<float>::max();
      n.hi[d] = std::numeric_limits<float>::lowest();
    }
    for (std::size_t i = begin; i < end; ++i)
      for (int d = 0; d < 3; ++d) {
        n.lo[d] = std::min(n.lo[d], points_[i].c[d]);
        n.hi[d] = std::max(n.hi[d], points_[i].c[d]);
      }
    if (end - begin <= leaf_size_) {
      for (std::size_t i = begin; i < end; ++i) index_[i] = points_[i].id;
      nodes_[static_cast<std::size_t>(id)] = n;
      return;
    }

    // Split on the widest dimension at the median.
    int dim = 0;
    float width = n.hi[0] - n.lo[0];
    for (int d = 1; d < 3; ++d) {
      const float w = n.hi[d] - n.lo[d];
      if (w > width) {
        width = w;
        dim = d;
      }
    }
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(points_.begin() + static_cast<std::ptrdiff_t>(begin),
                     points_.begin() + static_cast<std::ptrdiff_t>(mid),
                     points_.begin() + static_cast<std::ptrdiff_t>(end),
                     [dim](const Point& a, const Point& b) {
                       return a.c[dim] < b.c[dim];
                     });
    const std::int32_t l = id + 1;
    const std::int32_t r =
        id + 1 +
        static_cast<std::int32_t>(subtree_count_.find(mid - begin)->second);
    n.left = l;
    n.right = r;
    nodes_[static_cast<std::size_t>(id)] = n;
    if (backend_ == dpp::Backend::ThreadPool &&
        end - begin >= kParallelBuildCutoff) {
      // Explicit grain 1: two chunks, so both children really dispatch.
      dpp::for_each_index(
          backend_, 2,
          [&](std::size_t c) {
            if (c == 0)
              build_at(l, begin, mid);
            else
              build_at(r, mid, end);
          },
          /*grain=*/1);
    } else {
      build_at(l, begin, mid);
      build_at(r, mid, end);
    }
  }

  template <typename Fn>
  void range_recurse(std::int32_t id, double qx, double qy, double qz,
                     double r2, Fn& fn) const {
    const Node& n = node(id);
    double dmin2, dmax2;
    box_dist2(n, qx, qy, qz, dmin2, dmax2);
    if (dmin2 > r2) return;
    if (n.leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) {
        const Point& pt = points_[i];
        if (point_dist2(qx, qy, qz, pt.c[0], pt.c[1], pt.c[2]) <= r2)
          fn(pt.id);
      }
      return;
    }
    range_recurse(n.left, qx, qy, qz, r2, fn);
    range_recurse(n.right, qx, qy, qz, r2, fn);
  }

  template <typename Heap>
  void knn_recurse(std::int32_t id, double qx, double qy, double qz,
                   std::size_t k, Heap& heap) const {
    const Node& n = node(id);
    double dmin2, dmax2;
    box_dist2(n, qx, qy, qz, dmin2, dmax2);
    if (heap.size() == k && dmin2 > heap.top().first) return;
    if (n.leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) {
        const Point& pt = points_[i];
        const double d2 = point_dist2(qx, qy, qz, pt.c[0], pt.c[1], pt.c[2]);
        if (heap.size() < k) {
          heap.emplace(d2, pt.id);
        } else if (d2 < heap.top().first) {
          heap.pop();
          heap.emplace(d2, pt.id);
        }
      }
      return;
    }
    // Visit the nearer child first for better pruning.
    double lmin2, lmax2, rmin2, rmax2;
    box_dist2(node(n.left), qx, qy, qz, lmin2, lmax2);
    box_dist2(node(n.right), qx, qy, qz, rmin2, rmax2);
    if (lmin2 <= rmin2) {
      knn_recurse(n.left, qx, qy, qz, k, heap);
      knn_recurse(n.right, qx, qy, qz, k, heap);
    } else {
      knn_recurse(n.right, qx, qy, qz, k, heap);
      knn_recurse(n.left, qx, qy, qz, k, heap);
    }
  }

  Periodicity per_;
  std::size_t leaf_size_;
  dpp::Backend backend_ = dpp::Backend::Serial;
  /// Subtree size → node count, fully populated before build_at starts.
  std::unordered_map<std::size_t, std::size_t> subtree_count_;
  std::vector<Point> points_;
  std::vector<std::uint32_t> index_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

namespace detail {

#ifdef COSMO_HALO_AVX2
/// KdTree::fold (and the centre finder's detail::fold) on four lanes, as
/// two selects in fold's order. box 0, a non-periodic axis, turns both
/// selects into exact no-ops.
__attribute__((target("avx2"))) inline __m256d fold_avx2(__m256d d,
                                                         __m256d box,
                                                         __m256d half,
                                                         __m256d neg_half) {
  d = _mm256_blendv_pd(d, _mm256_sub_pd(d, box),
                       _mm256_cmp_pd(d, half, _CMP_GT_OQ));
  return _mm256_blendv_pd(d, _mm256_add_pd(d, box),
                          _mm256_cmp_pd(d, neg_half, _CMP_LT_OQ));
}
#endif

/// True when the AVX2 pair kernels may run on this host; decided once.
inline bool has_avx2() {
#ifdef COSMO_HALO_AVX2
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace cosmo::halo
