// Barnes-Hut octree (§3.3.1): "A Barnes-Hut tree, similar to an octree but
// with support for more efficient traversals, is used for calculating the
// local densities using an SPH kernel."
//
// A pointer-free octree over a particle subset: nodes store their cube,
// particle range (indices are reordered into contiguous per-node runs, the
// "efficient traversal" property — a whole subtree is one contiguous span),
// count, and center of mass. Exact k-nearest-neighbor queries run
// best-first over nodes; ball queries accept whole subtrees when the cube
// is contained in the ball. The subhalo finder can use this engine
// interchangeably with the k-d tree (SubhaloConfig::tree).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::halo {

class BhTree {
 public:
  /// Builds over the given particle indices. Non-periodic (subhalo hosts
  /// are compact; callers unwrap coordinates as the FOF pipeline does).
  BhTree(const sim::ParticleSet& p, std::vector<std::uint32_t> subset,
         std::size_t leaf_size = 16)
      : p_(&p), leaf_size_(std::max<std::size_t>(leaf_size, 1)),
        index_(std::move(subset)) {
    if (index_.empty()) return;
    // Root cube: bounding cube of all points.
    float lo[3] = {std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::max()};
    float hi[3] = {std::numeric_limits<float>::lowest(),
                   std::numeric_limits<float>::lowest(),
                   std::numeric_limits<float>::lowest()};
    for (const auto i : index_) {
      lo[0] = std::min(lo[0], p.x[i]);
      hi[0] = std::max(hi[0], p.x[i]);
      lo[1] = std::min(lo[1], p.y[i]);
      hi[1] = std::max(hi[1], p.y[i]);
      lo[2] = std::min(lo[2], p.z[i]);
      hi[2] = std::max(hi[2], p.z[i]);
    }
    const float half = 0.5f * std::max({hi[0] - lo[0], hi[1] - lo[1],
                                        hi[2] - lo[2], 1e-6f});
    Node root;
    root.cx = 0.5f * (lo[0] + hi[0]);
    root.cy = 0.5f * (lo[1] + hi[1]);
    root.cz = 0.5f * (lo[2] + hi[2]);
    root.half = half * 1.0001f;  // guard against boundary rounding
    root.begin = 0;
    root.end = static_cast<std::uint32_t>(index_.size());
    nodes_.push_back(root);
    build(0);
  }

  struct Node {
    float cx, cy, cz;   ///< cube center
    float half;         ///< cube half-width
    float comx = 0, comy = 0, comz = 0;  ///< center of mass
    std::uint32_t begin = 0, end = 0;    ///< contiguous index() range
    std::int32_t first_child = -1;       ///< 8 consecutive children, or -1
    bool leaf() const { return first_child < 0; }
    std::uint32_t count() const { return end - begin; }
  };

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  std::span<const std::uint32_t> index() const { return index_; }
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(std::size_t id) const { return nodes_[id]; }

  /// Exact k nearest neighbors of a point, nearest first; none for k = 0.
  std::vector<std::uint32_t> k_nearest(double qx, double qy, double qz,
                                       std::size_t k) const {
    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry> best;  // max-heap of the k closest so far
    if (!nodes_.empty() && k > 0) knn(0, qx, qy, qz, k, best);
    std::vector<std::uint32_t> out(best.size());
    for (std::size_t i = out.size(); i-- > 0;) {
      out[i] = best.top().second;
      best.pop();
    }
    return out;
  }

  /// Calls fn(i) for every particle within r of the query point. Whole
  /// subtrees strictly inside the ball are visited without per-particle
  /// distance tests (their index range is contiguous).
  template <typename Fn>
  void for_each_in_range(double qx, double qy, double qz, double r,
                         Fn&& fn) const {
    if (nodes_.empty()) return;
    range(0, qx, qy, qz, r * r, r, fn);
  }

  /// Count of particles within r (uses whole-subtree acceptance).
  std::size_t count_in_range(double qx, double qy, double qz,
                             double r) const {
    std::size_t n = 0;
    for_each_in_range(qx, qy, qz, r, [&](std::uint32_t) { ++n; });
    return n;
  }

 private:
  void build(std::size_t id) {
    // (Copy fields: nodes_ may reallocate while splitting.)
    const Node nd = nodes_[id];
    if (nd.count() <= leaf_size_) {
      finalize_com(id);
      return;
    }
    // Partition the range into octants of the cube.
    auto octant = [&](std::uint32_t i) {
      return (p_->x[i] >= nd.cx ? 1 : 0) | (p_->y[i] >= nd.cy ? 2 : 0) |
             (p_->z[i] >= nd.cz ? 4 : 0);
    };
    std::array<std::uint32_t, 9> bounds{};
    {
      std::array<std::uint32_t, 8> counts{};
      for (std::uint32_t k = nd.begin; k < nd.end; ++k)
        ++counts[static_cast<std::size_t>(octant(index_[k]))];
      bounds[0] = nd.begin;
      for (int o = 0; o < 8; ++o)
        bounds[static_cast<std::size_t>(o + 1)] =
            bounds[static_cast<std::size_t>(o)] + counts[static_cast<std::size_t>(o)];
      // In-place bucket permutation.
      std::array<std::uint32_t, 8> cursor;
      for (int o = 0; o < 8; ++o) cursor[static_cast<std::size_t>(o)] = bounds[static_cast<std::size_t>(o)];
      for (int o = 0; o < 8; ++o) {
        auto& cur = cursor[static_cast<std::size_t>(o)];
        while (cur < bounds[static_cast<std::size_t>(o + 1)]) {
          const int dest = octant(index_[cur]);
          if (dest == o) {
            ++cur;
          } else {
            std::swap(index_[cur], index_[cursor[static_cast<std::size_t>(dest)]]);
            ++cursor[static_cast<std::size_t>(dest)];
          }
        }
      }
    }
    // Degenerate split (all coincident points): make it a leaf.
    bool degenerate = false;
    for (int o = 0; o < 8; ++o)
      if (bounds[static_cast<std::size_t>(o + 1)] - bounds[static_cast<std::size_t>(o)] == nd.count())
        degenerate = nd.half < 1e-6f;
    if (degenerate) {
      finalize_com(id);
      return;
    }

    const auto first = static_cast<std::int32_t>(nodes_.size());
    nodes_[id].first_child = first;
    const float h = nd.half * 0.5f;
    for (int o = 0; o < 8; ++o) {
      Node child;
      child.cx = nd.cx + ((o & 1) ? h : -h);
      child.cy = nd.cy + ((o & 2) ? h : -h);
      child.cz = nd.cz + ((o & 4) ? h : -h);
      child.half = h;
      child.begin = bounds[static_cast<std::size_t>(o)];
      child.end = bounds[static_cast<std::size_t>(o + 1)];
      nodes_.push_back(child);
    }
    for (int o = 0; o < 8; ++o) {
      const auto cid = static_cast<std::size_t>(first + o);
      if (nodes_[cid].count() > 0) build(cid);
    }
    finalize_com(id);
  }

  void finalize_com(std::size_t id) {
    Node& nd = nodes_[id];
    double sx = 0, sy = 0, sz = 0;
    for (std::uint32_t k = nd.begin; k < nd.end; ++k) {
      const auto i = index_[k];
      sx += p_->x[i];
      sy += p_->y[i];
      sz += p_->z[i];
    }
    const double n = std::max<double>(nd.count(), 1);
    nd.comx = static_cast<float>(sx / n);
    nd.comy = static_cast<float>(sy / n);
    nd.comz = static_cast<float>(sz / n);
  }

  double cube_dist2(const Node& nd, double qx, double qy, double qz) const {
    auto axis = [](double q, double c, double h) {
      const double d = std::abs(q - c) - h;
      return d > 0.0 ? d : 0.0;
    };
    const double dx = axis(qx, nd.cx, nd.half);
    const double dy = axis(qy, nd.cy, nd.half);
    const double dz = axis(qz, nd.cz, nd.half);
    return dx * dx + dy * dy + dz * dz;
  }

  /// True if the cube is entirely inside the ball of radius r.
  bool cube_inside(const Node& nd, double qx, double qy, double qz,
                   double r) const {
    const double dx = std::abs(qx - nd.cx) + nd.half;
    const double dy = std::abs(qy - nd.cy) + nd.half;
    const double dz = std::abs(qz - nd.cz) + nd.half;
    return dx * dx + dy * dy + dz * dz <= r * r;
  }

  template <typename Heap>
  void knn(std::size_t id, double qx, double qy, double qz, std::size_t k,
           Heap& best) const {
    const Node& nd = nodes_[id];
    if (nd.count() == 0) return;
    if (best.size() == k && cube_dist2(nd, qx, qy, qz) > best.top().first)
      return;
    if (nd.leaf()) {
      for (std::uint32_t t = nd.begin; t < nd.end; ++t) {
        const auto i = index_[t];
        const double dx = qx - p_->x[i], dy = qy - p_->y[i], dz = qz - p_->z[i];
        const double d2 = dx * dx + dy * dy + dz * dz;
        if (best.size() < k) {
          best.emplace(d2, i);
        } else if (d2 < best.top().first) {
          best.pop();
          best.emplace(d2, i);
        }
      }
      return;
    }
    // Visit children nearest-first.
    std::array<std::pair<double, std::int32_t>, 8> order;
    for (int o = 0; o < 8; ++o) {
      const auto cid = nd.first_child + o;
      order[static_cast<std::size_t>(o)] = {
          cube_dist2(nodes_[static_cast<std::size_t>(cid)], qx, qy, qz), cid};
    }
    std::sort(order.begin(), order.end());
    for (const auto& [d2, cid] : order) {
      if (best.size() == k && d2 > best.top().first) break;
      knn(static_cast<std::size_t>(cid), qx, qy, qz, k, best);
    }
  }

  template <typename Fn>
  void range(std::size_t id, double qx, double qy, double qz, double r2,
             double r, Fn& fn) const {
    const Node& nd = nodes_[id];
    if (nd.count() == 0) return;
    if (cube_dist2(nd, qx, qy, qz) > r2) return;
    if (cube_inside(nd, qx, qy, qz, r)) {
      for (std::uint32_t t = nd.begin; t < nd.end; ++t) fn(index_[t]);
      return;
    }
    if (nd.leaf()) {
      for (std::uint32_t t = nd.begin; t < nd.end; ++t) {
        const auto i = index_[t];
        const double dx = qx - p_->x[i], dy = qy - p_->y[i], dz = qz - p_->z[i];
        if (dx * dx + dy * dy + dz * dz <= r2) fn(index_[t]);
      }
      return;
    }
    for (int o = 0; o < 8; ++o)
      range(static_cast<std::size_t>(nd.first_child + o), qx, qy, qz, r2, r,
            fn);
  }

  const sim::ParticleSet* p_;
  std::size_t leaf_size_;
  std::vector<std::uint32_t> index_;
  std::vector<Node> nodes_;
};

}  // namespace cosmo::halo
