// Friends-of-Friends halo finding (§3.3.1).
//
// An FOF halo is a connected component of the graph linking particle pairs
// closer than the linking length b. Within a rank the finder links on a
// balanced k-d tree, one leaf at a time: for each leaf L, in preorder, one
// walk from the root against L's bounding box
// - skips nodes that end before L in tree order, so each unordered pair is
//   looked at from its earlier leaf only, once;
// - prunes a node whose node–node minimum distance to L exceeds b;
// - unites L ∪ N outright when the node–node maximum distance is ≤ b (every
//   pair of L × N links, so L ∪ N is connected);
// - at a leaf pair N, skips N when every member of L ∪ N already shares one
//   root, and otherwise tests its pairs for dist2(i, j) ≤ b².
// On an AVX2 host a leaf pair is tested in lanes: L's members (at most
// kFofLeafSize = 16) sit as doubles in groups of four lanes, and each
// member of N in turn is compared against every group in dist2's own
// operations, so every link decision has the scalar test's bits; only the
// pairs that link look up roots. Elsewhere the pairs run one at a time,
// each skipped when its two ends already share a root.
// The bounds never misjudge a pair (see kdtree.h), so the components are
// exactly those of the all-pairs predicate, whatever the blocking and the
// leaf size. The linker works on tree positions and reads coordinates from
// the tree's own copy; every block unites into one shared, lock-free
// union-find whose roots are each component's smallest element. Across
// ranks, each rank finds halos over its owned+overload particles; a halo is
// kept by exactly the rank that owns the halo's minimum-tag particle.
// Provided the overload width is at least the maximum halo extent, that
// rank has seen the halo in its entirety, so the assignment is both unique
// and complete.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "halo/kdtree.h"
#include "obs/obs.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::halo {

/// Lock-free union-find over [0, n), shared by every thread that links.
/// unite hangs the larger of two roots under the smaller with one CAS, and
/// find halves the path with CASes that replace a parent by its own parent.
/// So a parent index only ever decreases, the forest never holds a cycle,
/// and a component's root is its smallest element whatever the order of
/// the unions. A link, once made, is never undone: equal finds prove two
/// elements connected even while other threads unite. Relaxed ordering is
/// enough: a parent word publishes no other data, and the pool's join
/// orders every link before the finds that group the halos.
class ConcurrentUnionFind {
 public:
  explicit ConcurrentUnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i)
      parent_[i].store(static_cast<std::uint32_t>(i),
                       std::memory_order_relaxed);
  }

  std::uint32_t find(std::uint32_t v) {
    while (true) {
      std::uint32_t p = parent_[v].load(std::memory_order_relaxed);
      if (p == v) return v;
      const std::uint32_t gp = parent_[p].load(std::memory_order_relaxed);
      if (gp == p) return p;
      // Halve: v's parent becomes its grandparent. If the CAS fails,
      // another thread already moved it lower (or the failure was
      // spurious); either way v's path stays valid.
      parent_[v].compare_exchange_weak(p, gp, std::memory_order_relaxed);
      v = gp;
    }
  }

  /// Joins the sets of a and b; returns the root the union hung under.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    while (true) {
      a = find(a);
      b = find(b);
      if (a == b) return a;
      if (a < b) std::swap(a, b);
      // On failure a was re-hung since its find (or the failure was
      // spurious): retry from a's new parent.
      if (parent_[a].compare_exchange_weak(a, b, std::memory_order_relaxed))
        return b;
    }
  }

 private:
  std::vector<std::atomic<std::uint32_t>> parent_;
};

/// One found halo: indices into the particle set the finder ran over, plus
/// the halo id (the minimum particle tag — globally unique and stable
/// across rank counts).
struct FofHalo {
  std::vector<std::uint32_t> members;
  std::int64_t id = 0;
  /// Index (into the particle set the finder ran over) of the member whose
  /// tag equals `id` — tracked during grouping so distributed ownership
  /// tests need no member re-scan.
  std::uint32_t min_tag_member = 0;
};

struct FofConfig {
  double linking_length = 0.2;  ///< b, in position units (Mpc/h)
  std::size_t min_size = 40;    ///< discard smaller halos (spurious links)
  dpp::Backend backend = dpp::Backend::Serial;  ///< linking + tree build
  std::size_t grain = 0;  ///< particles per linking block (0 = auto)
};

namespace detail {

/// Leaf size of FOF's k-d tree; LeafLanes holds one leaf. One thread of a
/// 4-vCPU AVX2 Xeon ran fof_find over the rank working sets of
/// cosmobench's three synthetic universes 23–34% faster with lanes on
/// 16-point leaves than with the scalar loop on 8-point leaves. Lanes on
/// 8-point leaves gained 7–9%; the scalar loop moved within ±3% on
/// 16-point leaves and lost 20–23% on 32-point leaves (EXPERIMENTS.md,
/// "FOF leaf pairs in AVX2 lanes").
inline constexpr std::size_t kFofLeafSize = 16;
static_assert(kFofLeafSize < 32, "the lane body keeps one mask bit per member");

/// Unites every pair a < b of L × N within the linking length, N being L
/// itself or a leaf after it: dist2(a, b) ≤ b², tested unless a and b
/// already share a root. The scalar leaf-pair body, the only one on a host
/// without AVX2.
inline void link_leaf_pair(const KdTree& tree, double ll2,
                           const KdTree::Node& L, const KdTree::Node& N,
                           ConcurrentUnionFind& sets) {
  for (std::uint32_t a = L.begin; a < L.end; ++a) {
    std::uint32_t ra = sets.find(a);
    for (std::uint32_t b = std::max(N.begin, a + 1); b < N.end; ++b) {
      const std::uint32_t rb = sets.find(b);
      if (rb == ra) continue;
      if (tree.dist2(a, b) <= ll2) ra = sets.unite(ra, rb);
    }
  }
}

#ifdef COSMO_HALO_AVX2
/// One leaf's members as doubles from the tree's point copy, in groups of
/// four lanes; the last group is padded with zeros.
struct LeafLanes {
  alignas(32) double x[kFofLeafSize] = {};
  alignas(32) double y[kFofLeafSize] = {};
  alignas(32) double z[kFofLeafSize] = {};
  std::uint32_t groups = 0;

  void load(const KdTree& tree, const KdTree::Node& L) {
    COSMO_REQUIRE(L.count() <= kFofLeafSize, "FOF leaf larger than its lanes");
    const auto pts = tree.points();
    groups = (L.count() + 3) / 4;
    for (std::uint32_t k = 0; k < 4 * groups; ++k) {
      const bool member = k < L.count();
      x[k] = member ? pts[L.begin + k].c[0] : 0.0;
      y[k] = member ? pts[L.begin + k].c[1] : 0.0;
      z[k] = member ? pts[L.begin + k].c[2] : 0.0;
    }
  }
};

/// link_leaf_pair's unions, with L's members (loaded in `lanes`) in lanes.
/// For each member b of N in order, each group of L forms d² in
/// KdTree::point_dist2's operations: a − b per axis, fold_avx2 (box 0 on a
/// non-periodic axis), then (dx² + dy²) + dz², and ≤ b² sets one bit of a
/// mask per member of L. Padding lanes are cleared, and when N is L so are
/// the lanes at or after b, leaving pairs a < b. Only set bits find roots:
/// b's once, then unite where the roots differ.
__attribute__((target("avx2"))) inline void link_leaf_pair_avx2(
    const KdTree& tree, double ll2, const LeafLanes& lanes,
    const KdTree::Node& L, const KdTree::Node& N, ConcurrentUnionFind& sets) {
  const Periodicity& per = tree.periodicity();
  const bool wraps[3] = {per.x, per.y, per.z};
  __m256d box[3], half[3], neg_half[3];
  for (int d = 0; d < 3; ++d) {
    const double w = wraps[d] ? per.box : 0.0;
    box[d] = _mm256_set1_pd(w);
    half[d] = _mm256_set1_pd(0.5 * w);
    neg_half[d] = _mm256_set1_pd(-0.5 * w);
  }
  const __m256d b2 = _mm256_set1_pd(ll2);
  const std::uint32_t members = (1u << L.count()) - 1;
  const auto pts = tree.points();
  for (std::uint32_t b = N.begin; b < N.end; ++b) {
    const KdTree::Point& pb = pts[b];
    const __m256d xb = _mm256_set1_pd(pb.c[0]);
    const __m256d yb = _mm256_set1_pd(pb.c[1]);
    const __m256d zb = _mm256_set1_pd(pb.c[2]);
    std::uint32_t mask = 0;
    for (std::uint32_t g = 0; g < lanes.groups; ++g) {
      const __m256d dx = fold_avx2(
          _mm256_sub_pd(_mm256_load_pd(lanes.x + 4 * g), xb), box[0],
          half[0], neg_half[0]);
      const __m256d dy = fold_avx2(
          _mm256_sub_pd(_mm256_load_pd(lanes.y + 4 * g), yb), box[1],
          half[1], neg_half[1]);
      const __m256d dz = fold_avx2(
          _mm256_sub_pd(_mm256_load_pd(lanes.z + 4 * g), zb), box[2],
          half[2], neg_half[2]);
      const __m256d d2 = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
          _mm256_mul_pd(dz, dz));
      mask |= static_cast<std::uint32_t>(
                  _mm256_movemask_pd(_mm256_cmp_pd(d2, b2, _CMP_LE_OQ)))
              << (4 * g);
    }
    mask &= members;
    if (N.begin == L.begin) mask &= (1u << (b - L.begin)) - 1;
    if (mask == 0) continue;
    std::uint32_t rb = sets.find(b);
    for (; mask != 0; mask &= mask - 1) {
      const std::uint32_t ra = sets.find(
          L.begin + static_cast<std::uint32_t>(std::countr_zero(mask)));
      if (ra != rb) rb = sets.unite(ra, rb);
    }
  }
}
#endif

/// Links every pair within the linking length that has one end in a leaf
/// of `leaves` (preorder ids) and the other at or after that leaf in tree
/// order, uniting tree positions in `sets`. Over all leaves this is every
/// pair, once. The leaf pairs that survive the walk go to the lane body on
/// an AVX2 host and to the scalar body elsewhere.
inline void fof_link_leaves(const KdTree& tree, double ll2,
                            std::span<const std::int32_t> leaves,
                            ConcurrentUnionFind& sets) {
  // True when every member of L ∪ N already shares one root: no pair of
  // L × N can join two components then.
  auto one_root = [&](const KdTree::Node& L, const KdTree::Node& N) {
    const std::uint32_t r = sets.find(L.begin);
    for (std::uint32_t k = L.begin + 1; k < L.end; ++k)
      if (sets.find(k) != r) return false;
    for (std::uint32_t k = N.begin; k < N.end; ++k)
      if (sets.find(k) != r) return false;
    return true;
  };
#ifdef COSMO_HALO_AVX2
  const bool in_lanes = has_avx2();
  LeafLanes lanes;
#endif
  // A walk's pending nodes: one sibling per level, plus the node in hand.
  std::vector<std::int32_t> stack;
  for (const std::int32_t leaf : leaves) {
    const KdTree::Node& L = tree.node(leaf);
    bool leaf_united = false;
    [[maybe_unused]] bool leaf_loaded = false;
    stack.assign(1, tree.root());
    while (!stack.empty()) {
      const KdTree::Node& N = tree.node(stack.back());
      stack.pop_back();
      if (N.end <= L.begin) continue;  // its pairs with L were linked from it
      double dmin2, dmax2;
      tree.node_dist2(L, N, dmin2, dmax2);
      if (dmin2 > ll2) continue;
      if (dmax2 <= ll2) {  // every pair of L × N links: L ∪ N is connected
        if (!leaf_united) {
          for (std::uint32_t k = L.begin + 1; k < L.end; ++k)
            sets.unite(L.begin, k);
          leaf_united = true;
        }
        for (std::uint32_t k = N.begin; k < N.end; ++k) sets.unite(L.begin, k);
        continue;
      }
      if (!N.leaf()) {
        stack.push_back(N.right);
        stack.push_back(N.left);
        continue;
      }
      if (one_root(L, N)) continue;
#ifdef COSMO_HALO_AVX2
      if (in_lanes) {
        if (!leaf_loaded) {
          lanes.load(tree, L);
          leaf_loaded = true;
        }
        link_leaf_pair_avx2(tree, ll2, lanes, L, N, sets);
        continue;
      }
#endif
      link_leaf_pair(tree, ll2, L, N, sets);
    }
  }
}

/// Halos of at least min_size members from root[i], a label in [0, n)
/// that particles share exactly when they share a component. Members are
/// in ascending particle order, halos largest first, then by id.
inline std::vector<FofHalo> group_halos(const sim::ParticleSet& p,
                                        std::span<const std::uint32_t> root,
                                        std::size_t min_size) {
  const std::size_t n = root.size();
  std::vector<std::uint32_t> count(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++count[root[i]];
  std::vector<std::int32_t> halo_of_root(n, -1);
  std::vector<FofHalo> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = root[i];
    if (count[r] < min_size) continue;
    if (halo_of_root[r] < 0) {
      halo_of_root[r] = static_cast<std::int32_t>(out.size());
      out.emplace_back();
      out.back().members.reserve(count[r]);
      out.back().id = std::numeric_limits<std::int64_t>::max();
    }
    auto& h = out[static_cast<std::size_t>(halo_of_root[r])];
    h.members.push_back(i);
    if (p.tag[i] < h.id) {
      h.id = p.tag[i];
      h.min_tag_member = i;
    }
  }
  std::sort(out.begin(), out.end(), [](const FofHalo& a, const FofHalo& b) {
    return a.members.size() != b.members.size()
               ? a.members.size() > b.members.size()
               : a.id < b.id;
  });
  return out;
}

}  // namespace detail

/// FOF over `p` under the given periodicity. Returns halos with at least
/// cfg.min_size members, largest first. The tree's leaves are cut into
/// blocks of about cfg.grain particles (runs of whole leaves), one pool
/// task each on the ThreadPool backend, all uniting into one shared
/// ConcurrentUnionFind. Connected components are independent of unite
/// order, so the catalog is bit-identical to Serial at every grain.
inline std::vector<FofHalo> fof_find(const sim::ParticleSet& p,
                                     const Periodicity& per,
                                     const FofConfig& cfg) {
  COSMO_REQUIRE(cfg.linking_length > 0.0, "linking length must be positive");
  const std::size_t n = p.size();
  if (n == 0) return {};

  COSMO_TRACE_SPAN_CAT("halo.fof", "halo");
  KdTree tree = [&] {
    COSMO_TRACE_SPAN_CAT("halo.tree", "halo");
    return KdTree::over_all(p, per, detail::kFofLeafSize, cfg.backend);
  }();
  ConcurrentUnionFind sets(n);
  const double ll2 = cfg.linking_length * cfg.linking_length;
  // The leaves in preorder; their ranges tile [0, n) in order.
  std::vector<std::int32_t> leaves;
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(tree.node_count());
       ++id)
    if (tree.node(id).leaf()) leaves.push_back(id);

  // Block blk links the leaves that begin in its range of tree positions.
  auto first_leaf = [&](std::size_t pos) {
    return static_cast<std::size_t>(
        std::partition_point(leaves.begin(), leaves.end(),
                             [&](std::int32_t id) {
                               return tree.node(id).begin < pos;
                             }) -
        leaves.begin());
  };
  const dpp::detail::BlockDecomposition blocks(n, cfg.grain);
  dpp::for_each_index(
      cfg.backend, blocks.num_blocks,
      [&](std::size_t blk) {
        const std::size_t lo = first_leaf(blocks.lo(blk));
        const std::size_t hi = first_leaf(blocks.hi(blk, n));
        detail::fof_link_leaves(tree, ll2,
                                std::span(leaves).subspan(lo, hi - lo), sets);
      },
      /*grain=*/1);

  // Each particle's component, labelled by its smallest tree position.
  std::vector<std::uint32_t> root(n);
  const auto idx = tree.index();
  for (std::uint32_t k = 0; k < n; ++k) root[idx[k]] = sets.find(k);
  auto out = detail::group_halos(p, root, cfg.min_size);
  COSMO_COUNT("halo.fof_halos", out.size());
  return out;
}

/// O(n²) reference implementation for tests.
inline std::vector<FofHalo> fof_brute_force(const sim::ParticleSet& p,
                                            const Periodicity& per,
                                            const FofConfig& cfg) {
  const std::size_t n = p.size();
  ConcurrentUnionFind sets(n);
  const double ll2 = cfg.linking_length * cfg.linking_length;
  auto fold = [&](double d, bool flag) {
    if (!flag) return d;
    if (d > 0.5 * per.box) d -= per.box;
    if (d < -0.5 * per.box) d += per.box;
    return d;
  };
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double dx = fold(static_cast<double>(p.x[i]) - p.x[j], per.x);
      const double dy = fold(static_cast<double>(p.y[i]) - p.y[j], per.y);
      const double dz = fold(static_cast<double>(p.z[i]) - p.z[j], per.z);
      if (dx * dx + dy * dy + dz * dz <= ll2) sets.unite(i, j);
    }
  std::vector<std::uint32_t> root(n);
  for (std::uint32_t i = 0; i < n; ++i) root[i] = sets.find(i);
  return detail::group_halos(p, root, cfg.min_size);
}

/// Result of the distributed finder. Halos' member indices refer to
/// `particles` (the rank's owned+overload working set); indices below
/// `owned_count` are owned, the rest are ghosts.
struct DistributedFofResult {
  sim::ParticleSet particles;
  std::size_t owned_count = 0;
  std::vector<FofHalo> halos;  ///< halos assigned to this rank, complete
};

/// Parallel FOF across the slab decomposition. `overload_width` must be at
/// least the maximum halo extent (the paper's correctness condition).
inline DistributedFofResult fof_distributed(comm::Comm& comm,
                                            const sim::SlabDecomposition& decomp,
                                            const sim::ParticleSet& owned,
                                            const FofConfig& cfg,
                                            double overload_width) {
  DistributedFofResult out;
  if (comm.size() == 1) {
    out.particles = owned;
    out.owned_count = owned.size();
    out.halos = fof_find(out.particles, Periodicity::all(decomp.box()), cfg);
    return out;
  }
  auto ov = decomp.exchange_overload(comm, owned, overload_width);
  out.particles = std::move(ov.particles);
  out.owned_count = ov.owned_count;
  auto halos = fof_find(out.particles, Periodicity::xy(decomp.box()), cfg);
  // Keep a halo iff the minimum-tag member is one of our owned particles
  // (grouping already tracked the arg-min member alongside the id).
  for (auto& h : halos)
    if (h.min_tag_member < out.owned_count) out.halos.push_back(std::move(h));
  return out;
}

}  // namespace cosmo::halo
