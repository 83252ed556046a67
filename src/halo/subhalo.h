// Subhalo finding (§3.3.1, second half).
//
// Follows the density-hierarchy approach of Refs. [24, 35] as the paper
// describes it: (1) each particle's local density is estimated from its k
// nearest neighbors with an SPH kernel (neighbors found via the spatial
// tree); (2) a candidate hierarchy is built by sweeping particles in
// decreasing density order — a particle with no denser linked neighbor
// seeds a new candidate, a particle adjacent to one candidate joins it,
// and a particle bridging two candidates is a saddle: the smaller
// candidate is closed as a subhalo and absorbed; (3) candidates are
// pruned by a multi-pass unbinding that removes at most one quarter of
// the positive-energy particles per pass.
//
// The paper finds the neighbors on a Barnes-Hut tree. Here the periodic k-d
// tree that FOF and the A* centre finder already use stands in for it:
// k-nearest queries on either tree are exact, so the densities do not
// depend on which tree answers them, and the k-d tree folds distances
// across the periodic box, which a host straddling the box edge needs. One
// tree is built per host, over the members' positions with member slots
// as ids; one k-nearest query per member finds the neighbour lists that
// the density pass and the linking sweep both read.
//
// Deliberately CPU-only (the paper notes the subhalo finder "does not take
// advantage of GPUs"), which is what makes it a second load-imbalance
// driver for the workflow comparison.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <span>
#include <vector>

#include "halo/kdtree.h"
#include "sim/particles.h"

namespace cosmo::halo {

struct SubhaloConfig {
  std::size_t num_neighbors = 20;   ///< k for the SPH density estimate
  std::size_t min_size = 20;        ///< smallest subhalo kept
  double particle_mass = 1.0;
  double box = 0.0;                 ///< periodic box (0 = non-periodic)
  std::size_t unbind_passes = 8;    ///< max unbinding iterations
  double velocity_scale = 1.0;      ///< converts stored velocities to the
                                    ///< potential's energy units
};

struct Subhalo {
  std::vector<std::uint32_t> members;  ///< indices into the particle set
  double peak_density = 0.0;
};

namespace detail {

/// Standard cubic-spline SPH kernel W(r, h), normalized in 3-D.
inline double sph_kernel(double r, double h) {
  const double q = r / h;
  const double norm = 8.0 / (std::numbers::pi * h * h * h);
  if (q < 0.5) return norm * (1.0 - 6.0 * q * q + 6.0 * q * q * q);
  if (q < 1.0) {
    const double t = 1.0 - q;
    return norm * 2.0 * t * t * t;
  }
  return 0.0;
}

}  // namespace detail

/// The finder's one neighbor engine for a host: a k-d tree over the
/// members' positions whose ids are member slots, so a k-nearest query
/// returns slots. Equal distances break by slot, which is particle order
/// when members ascend (as FOF and the Level 2 blocks list them).
inline KdTree member_tree(const sim::ParticleSet& p,
                          std::span<const std::uint32_t> members,
                          const SubhaloConfig& cfg) {
  std::vector<KdTree::Point> points(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::uint32_t i = members[m];
    points[m] = {{p.x[i], p.y[i], p.z[i]}, static_cast<std::uint32_t>(m)};
  }
  return KdTree(std::move(points),
                cfg.box > 0.0 ? Periodicity::all(cfg.box) : Periodicity{});
}

/// Each member slot's min(k + 1, n) nearest neighbours on a member_tree,
/// itself included, nearest first (k = cfg.num_neighbors): row m of one
/// flat array, 4·(k + 1) bytes a member. The density pass and the linking
/// sweep both read these rows, so each list is found once.
struct NeighborLists {
  std::size_t width = 0;             ///< slots per row
  std::vector<std::uint32_t> slots;  ///< n rows of `width` member slots

  std::span<const std::uint32_t> row(std::size_t m) const {
    return std::span(slots).subspan(m * width, width);
  }
};

inline NeighborLists nearest_neighbors(const sim::ParticleSet& p,
                                       std::span<const std::uint32_t> members,
                                       const KdTree& tree,
                                       const SubhaloConfig& cfg) {
  NeighborLists out;
  out.width = std::min(cfg.num_neighbors + 1, members.size());
  out.slots.resize(members.size() * out.width);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::uint32_t i = members[m];
    const auto nbrs = tree.k_nearest(p.x[i], p.y[i], p.z[i], out.width);
    std::copy(nbrs.begin(), nbrs.end(),
              out.slots.begin() + static_cast<std::ptrdiff_t>(m * out.width));
  }
  return out;
}

/// SPH local density for each member slot: kernel-weighted mass of the k
/// nearest neighbors, with the smoothing length set to the k-th neighbor
/// distance (the estimator the paper describes: "total mass of these
/// particles and the distance to the furthest of these"). `tree` is the
/// member_tree(p, members, cfg) that `nbrs` was found on.
inline std::vector<double> local_densities(const sim::ParticleSet& p,
                                           std::span<const std::uint32_t> members,
                                           const KdTree& tree,
                                           const NeighborLists& nbrs,
                                           const SubhaloConfig& cfg) {
  auto dist = [&](std::uint32_t a, std::uint32_t b) {
    return std::sqrt(
        tree.point_dist2(p.x[a], p.y[a], p.z[a], p.x[b], p.y[b], p.z[b]));
  };
  std::vector<double> rho(members.size(), 0.0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::uint32_t i = members[m];
    double h = 0.0;
    for (const auto j : nbrs.row(m)) h = std::max(h, dist(i, members[j]));
    if (h <= 0.0) h = 1e-10;
    double d = 0.0;
    for (const auto j : nbrs.row(m))
      d += cfg.particle_mass * detail::sph_kernel(dist(i, members[j]), h);
    rho[m] = d;
  }
  return rho;
}

/// The same densities, finding the neighbour lists on `tree` first.
inline std::vector<double> local_densities(const sim::ParticleSet& p,
                                           std::span<const std::uint32_t> members,
                                           const KdTree& tree,
                                           const SubhaloConfig& cfg) {
  return local_densities(p, members, tree,
                         nearest_neighbors(p, members, tree, cfg), cfg);
}

inline void unbind(const sim::ParticleSet& p, Subhalo& s,
                   const SubhaloConfig& cfg);

/// Finds subhalos within one parent halo. Members are indices into `p`.
inline std::vector<Subhalo> find_subhalos(const sim::ParticleSet& p,
                                          std::span<const std::uint32_t> members,
                                          const SubhaloConfig& cfg) {
  const std::size_t n = members.size();
  std::vector<Subhalo> out;
  if (n < cfg.min_size) return out;

  const KdTree tree = member_tree(p, members, cfg);
  const NeighborLists nbrs = nearest_neighbors(p, members, tree, cfg);
  const std::vector<double> rho = local_densities(p, members, tree, nbrs, cfg);

  // Sweep in decreasing density; link each particle to denser neighbors.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return rho[a] != rho[b] ? rho[a] > rho[b] : a < b;
  });

  // candidate_of[m] = current candidate id, or -1 if not yet swept.
  std::vector<std::int32_t> candidate_of(n, -1);
  struct Candidate {
    std::vector<std::uint32_t> slots;  // member slots
    double peak = 0.0;
    bool closed = false;
  };
  std::vector<Candidate> cands;

  for (const auto m : order) {
    // Among this particle's nearest neighbors, collect candidates of those
    // already swept AND denser.
    std::int32_t c1 = -1, c2 = -1;
    for (const auto mj : nbrs.row(m)) {
      if (mj == m || candidate_of[mj] < 0) continue;
      // Resolve to the candidate's current (possibly merged) root.
      std::int32_t c = candidate_of[mj];
      if (c != c1 && c1 >= 0 && c != c2 && c2 < 0)
        c2 = c;
      else if (c1 < 0)
        c1 = c;
    }
    if (c1 < 0) {
      // Local density peak: new candidate.
      candidate_of[m] = static_cast<std::int32_t>(cands.size());
      cands.push_back({{m}, rho[m], false});
    } else if (c2 < 0) {
      candidate_of[m] = c1;
      cands[static_cast<std::size_t>(c1)].slots.push_back(m);
    } else {
      // Saddle point joining two candidates: close the smaller one as a
      // subhalo (if large enough) and merge it into the larger.
      auto& a = cands[static_cast<std::size_t>(c1)];
      auto& b = cands[static_cast<std::size_t>(c2)];
      auto& small = a.slots.size() <= b.slots.size() ? a : b;
      auto& large = a.slots.size() <= b.slots.size() ? b : a;
      const std::int32_t large_id = (&large == &a) ? c1 : c2;
      if (!small.closed && small.slots.size() >= cfg.min_size) {
        Subhalo s;
        s.peak_density = small.peak;
        s.members.reserve(small.slots.size());
        for (const auto ms : small.slots) s.members.push_back(members[ms]);
        out.push_back(std::move(s));
      }
      small.closed = true;
      for (const auto ms : small.slots) candidate_of[ms] = large_id;
      large.slots.insert(large.slots.end(), small.slots.begin(),
                         small.slots.end());
      small.slots.clear();
      candidate_of[m] = large_id;
      large.slots.push_back(m);
    }
  }
  // The top-level candidate (the halo's main body) is not a subhalo; any
  // remaining unclosed candidate that is not the largest becomes one.
  std::size_t largest = 0, largest_id = 0;
  for (std::size_t c = 0; c < cands.size(); ++c)
    if (cands[c].slots.size() > largest) {
      largest = cands[c].slots.size();
      largest_id = c;
    }
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (c == largest_id || cands[c].closed) continue;
    if (cands[c].slots.size() >= cfg.min_size) {
      Subhalo s;
      s.peak_density = cands[c].peak;
      for (const auto ms : cands[c].slots) s.members.push_back(members[ms]);
      out.push_back(std::move(s));
    }
  }

  // Unbinding: iteratively strip the most energetic unbound particles.
  for (auto& s : out) unbind(p, s, cfg);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Subhalo& s) {
                             return s.members.size() < cfg.min_size;
                           }),
            out.end());
  std::sort(out.begin(), out.end(), [](const Subhalo& a, const Subhalo& b) {
    return a.members.size() > b.members.size();
  });
  return out;
}

/// Multi-pass unbinding: compute each member's total energy in the
/// subhalo's own frame; remove at most one quarter of the positive-energy
/// particles (the most energetic ones) per pass, as the paper specifies.
inline void unbind(const sim::ParticleSet& p, Subhalo& s,
                   const SubhaloConfig& cfg) {
  for (std::size_t pass = 0; pass < cfg.unbind_passes; ++pass) {
    const std::size_t n = s.members.size();
    if (n < cfg.min_size) return;
    // Bulk velocity of the subhalo.
    double mvx = 0, mvy = 0, mvz = 0;
    for (const auto i : s.members) {
      mvx += p.vx[i];
      mvy += p.vy[i];
      mvz += p.vz[i];
    }
    mvx /= static_cast<double>(n);
    mvy /= static_cast<double>(n);
    mvz /= static_cast<double>(n);

    // Energies: potential from all other members (unit G), kinetic in the
    // subhalo frame.
    std::vector<double> energy(n);
    for (std::size_t a = 0; a < n; ++a) {
      const auto i = s.members[a];
      double phi = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const auto j = s.members[b];
        double dx = static_cast<double>(p.x[i]) - p.x[j];
        double dy = static_cast<double>(p.y[i]) - p.y[j];
        double dz = static_cast<double>(p.z[i]) - p.z[j];
        const double d2 = cfg.box > 0.0
                              ? sim::periodic_dist2(dx, dy, dz, cfg.box)
                              : dx * dx + dy * dy + dz * dz;
        phi -= cfg.particle_mass / (std::sqrt(d2) + 1e-10);
      }
      const double wx = (p.vx[i] - mvx) * cfg.velocity_scale;
      const double wy = (p.vy[i] - mvy) * cfg.velocity_scale;
      const double wz = (p.vz[i] - mvz) * cfg.velocity_scale;
      energy[a] = 0.5 * (wx * wx + wy * wy + wz * wz) + phi;
    }

    std::vector<std::uint32_t> unbound;
    for (std::size_t a = 0; a < n; ++a)
      if (energy[a] > 0.0) unbound.push_back(static_cast<std::uint32_t>(a));
    if (unbound.empty()) return;
    // Remove at most 1/4 of the positive-energy particles, most energetic
    // first.
    std::sort(unbound.begin(), unbound.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return energy[a] > energy[b];
              });
    const std::size_t strip = std::max<std::size_t>(1, (unbound.size() + 3) / 4);
    std::vector<bool> removed(n, false);
    for (std::size_t u = 0; u < strip; ++u) removed[unbound[u]] = true;
    std::vector<std::uint32_t> kept;
    kept.reserve(n - strip);
    for (std::size_t a = 0; a < n; ++a)
      if (!removed[a]) kept.push_back(s.members[a]);
    s.members = std::move(kept);
  }
}

}  // namespace cosmo::halo
