// Friends-of-Friends halo finding (§3.3.1).
//
// An FOF halo is a connected component of the graph linking particle pairs
// closer than the linking length b. Within a rank the finder links on a
// balanced k-d tree, one leaf at a time: for each leaf L, in preorder, one
// walk from the root against L's bounding box
// - skips nodes that end before L in index() order, so each unordered pair
//   is looked at from its earlier leaf only, once;
// - prunes a node whose node–node minimum distance to L exceeds b;
// - unites L ∪ N outright when the node–node maximum distance is ≤ b (every
//   pair of L × N links, so L ∪ N is connected);
// - at a leaf pair, tests dist2(i, j) ≤ b² unless i and j already share a
//   root.
// The bounds never misjudge a pair (see kdtree.h), so the components are
// exactly those of the all-pairs predicate, whatever the blocking. Across
// ranks, each rank finds halos over its owned+overload particles; a halo is
// kept by exactly the rank that owns the halo's minimum-tag particle.
// Provided the overload width is at least the maximum halo extent, that
// rank has seen the halo in its entirety, so the assignment is both unique
// and complete.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
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

/// Union-find with path compression and union by size.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  std::uint32_t find(std::uint32_t v) {
    std::uint32_t root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {
      const std::uint32_t next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

  std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
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

/// Links every pair within the linking length that has one end in a leaf
/// of `leaves` (preorder ids) and the other at or after that leaf in
/// index(), uniting into `sets`. Over all leaves this is every pair, once.
inline void fof_link_leaves(const KdTree& tree, double ll2,
                            std::span<const std::int32_t> leaves,
                            DisjointSets& sets) {
  const auto idx = tree.index();
  // A walk's pending nodes: one sibling per level, plus the node in hand.
  std::vector<std::int32_t> stack;
  for (const std::int32_t leaf : leaves) {
    const KdTree::Node& L = tree.node(leaf);
    const std::uint32_t rep = idx[L.begin];
    bool leaf_united = false;
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
            sets.unite(rep, idx[k]);
          leaf_united = true;
        }
        for (std::uint32_t k = N.begin; k < N.end; ++k) sets.unite(rep, idx[k]);
        continue;
      }
      if (!N.leaf()) {
        stack.push_back(N.right);
        stack.push_back(N.left);
        continue;
      }
      // N is L itself or a leaf after it: pairs a < b only.
      for (std::uint32_t a = L.begin; a < L.end; ++a) {
        const std::uint32_t i = idx[a];
        for (std::uint32_t b = std::max(N.begin, a + 1); b < N.end; ++b) {
          const std::uint32_t j = idx[b];
          if (sets.find(i) == sets.find(j)) continue;
          if (tree.dist2(i, j) <= ll2) sets.unite(i, j);
        }
      }
    }
  }
}

}  // namespace detail

/// FOF over `p` under the given periodicity. Returns halos with at least
/// cfg.min_size members, largest first. On the ThreadPool backend the
/// tree's leaves are cut into blocks of about cfg.grain particles (runs of
/// whole leaves), each uniting into a private DisjointSets; the block-local
/// partitions are folded in ascending block order. Connected components are
/// independent of unite order, so the catalog is bit-identical to Serial at
/// every grain.
inline std::vector<FofHalo> fof_find(const sim::ParticleSet& p,
                                     const Periodicity& per,
                                     const FofConfig& cfg) {
  COSMO_REQUIRE(cfg.linking_length > 0.0, "linking length must be positive");
  const std::size_t n = p.size();
  std::vector<FofHalo> out;
  if (n == 0) return out;

  COSMO_TRACE_SPAN_CAT("halo.fof", "halo");
  KdTree tree = [&] {
    COSMO_TRACE_SPAN_CAT("halo.tree", "halo");
    return KdTree::over_all(p, per, /*leaf_size=*/8, cfg.backend);
  }();
  DisjointSets sets(n);
  const double ll2 = cfg.linking_length * cfg.linking_length;
  // The leaves in preorder; their index() ranges tile [0, n) in order.
  std::vector<std::int32_t> leaves;
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(tree.node_count());
       ++id)
    if (tree.node(id).leaf()) leaves.push_back(id);

  // Cap the block count like deposit_reduce: memory stays O(workers)
  // private DisjointSets and the ascending fold stays O(blocks · n).
  const std::size_t nw = dpp::ThreadPool::instance().workers();
  const std::size_t max_blocks = std::max<std::size_t>(std::size_t{1}, 4 * nw);
  const std::size_t min_block = (n + max_blocks - 1) / max_blocks;
  const dpp::detail::BlockDecomposition blocks(n, cfg.grain, min_block);
  if (cfg.backend != dpp::Backend::ThreadPool || blocks.num_blocks <= 1) {
    detail::fof_link_leaves(tree, ll2, leaves, sets);
  } else {
    // Block blk links the leaves that begin in its particle range.
    auto first_leaf = [&](std::size_t pos) {
      return static_cast<std::size_t>(
          std::partition_point(leaves.begin(), leaves.end(),
                               [&](std::int32_t id) {
                                 return tree.node(id).begin < pos;
                               }) -
          leaves.begin());
    };
    std::vector<DisjointSets> partial(blocks.num_blocks, DisjointSets(n));
    dpp::for_each_index(
        cfg.backend, blocks.num_blocks,
        [&](std::size_t blk) {
          const std::size_t lo = first_leaf(blocks.lo(blk));
          const std::size_t hi = first_leaf(blocks.hi(blk, n));
          detail::fof_link_leaves(
              tree, ll2, std::span(leaves).subspan(lo, hi - lo), partial[blk]);
        },
        /*grain=*/1);
    for (auto& part : partial)
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t r = part.find(i);
        if (r != i) sets.unite(i, r);
      }
  }

  // Group members by root.
  std::vector<std::uint32_t> root(n);
  for (std::uint32_t i = 0; i < n; ++i) root[i] = sets.find(i);
  std::vector<std::uint32_t> count(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++count[root[i]];
  std::vector<std::int32_t> halo_of_root(n, -1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = root[i];
    if (count[r] < cfg.min_size) continue;
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
  COSMO_COUNT("halo.fof_halos", out.size());
  COSMO_GAUGE_SET("halo.largest_halo_frac",
                  out.empty() ? 0.0
                              : static_cast<double>(out.front().members.size()) /
                                    static_cast<double>(n));
  return out;
}

/// O(n²) reference implementation for tests.
inline std::vector<FofHalo> fof_brute_force(const sim::ParticleSet& p,
                                            const Periodicity& per,
                                            const FofConfig& cfg) {
  const std::size_t n = p.size();
  DisjointSets sets(n);
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
  std::vector<std::uint32_t> count(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++count[root[i]];
  std::vector<std::int32_t> halo_of_root(n, -1);
  std::vector<FofHalo> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = root[i];
    if (count[r] < cfg.min_size) continue;
    if (halo_of_root[r] < 0) {
      halo_of_root[r] = static_cast<std::int32_t>(out.size());
      out.emplace_back();
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
