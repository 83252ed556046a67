// Halo merger trees — tracking halos across timesteps.
//
// The paper's introduction frames the analysis goal: "analysis tasks are
// carried out to not only capture these structures within one time snapshot
// but also to track their evolution to the end of the simulation. Over
// time, halos merge and accrete mass." This module links halo catalogs from
// consecutive snapshots by particle-tag overlap (tags are conserved
// Lagrangian identities): a halo's descendant is the next-step halo holding
// the plurality of its particles; a halo with several progenitors is a
// merger.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "dpp/primitives.h"
#include "halo/fof.h"
#include "util/error.h"

namespace cosmo::stats {

/// A halo's identity at one step: catalog id + the member particle tags.
struct TrackedHalo {
  std::int64_t id = 0;
  std::vector<std::int64_t> tags;
};

/// Extracts tracked halos (id + member tags) from a rank's FOF result.
inline std::vector<TrackedHalo> tracked_halos(
    const halo::DistributedFofResult& fof) {
  std::vector<TrackedHalo> out;
  out.reserve(fof.halos.size());
  for (const auto& h : fof.halos) {
    TrackedHalo t;
    t.id = h.id;
    t.tags.reserve(h.members.size());
    for (const auto m : h.members) t.tags.push_back(fof.particles.tag[m]);
    out.push_back(std::move(t));
  }
  return out;
}

struct MergerLink {
  std::size_t step = 0;            ///< progenitor's step
  std::int64_t progenitor = 0;     ///< halo id at `step`
  std::int64_t descendant = 0;     ///< halo id at `step + 1`
  std::size_t shared_particles = 0;
};

/// Builds descendant links between consecutive snapshots.
class MergerTreeBuilder {
 public:
  /// Snapshots must be added in increasing step order.
  void add_snapshot(std::size_t step, std::vector<TrackedHalo> halos) {
    COSMO_REQUIRE(snapshots_.empty() || step > snapshots_.rbegin()->first,
                  "snapshots must be added in increasing step order");
    snapshots_.emplace(step, std::move(halos));
  }

  /// Computes all links; call once after adding every snapshot. The
  /// per-progenitor overlap counts are independent (the owner map is
  /// read-only), so they fan out as one pool task per progenitor halo;
  /// links land in a preallocated slot per halo and are appended in halo
  /// order, so the result is identical on both backends.
  void build(dpp::Backend backend = dpp::Backend::Serial) {
    links_.clear();
    auto it = snapshots_.begin();
    if (it == snapshots_.end()) return;
    for (auto next = std::next(it); next != snapshots_.end(); ++it, ++next) {
      // Tag → next-step halo id.
      std::unordered_map<std::int64_t, std::int64_t> owner;
      for (const auto& h : next->second)
        for (const auto t : h.tags) owner[t] = h.id;
      const auto& prev = it->second;
      // shared_particles == 0 marks "no descendant" (dissolved / below cut).
      std::vector<MergerLink> cand(prev.size());
      dpp::for_each_index(
          backend, prev.size(),
          [&](std::size_t k) {
            const auto& h = prev[k];
            // Count overlap per candidate descendant.
            std::map<std::int64_t, std::size_t> overlap;
            for (const auto t : h.tags) {
              auto f = owner.find(t);
              if (f != owner.end()) ++overlap[f->second];
            }
            if (overlap.empty()) return;
            auto best = overlap.begin();
            for (auto o = overlap.begin(); o != overlap.end(); ++o)
              if (o->second > best->second) best = o;
            cand[k] = {it->first, h.id, best->first, best->second};
          },
          /*grain=*/1);
      for (const auto& l : cand)
        if (l.shared_particles > 0) links_.push_back(l);
    }
  }

  const std::vector<MergerLink>& links() const { return links_; }

  /// Progenitors of halo `id` at step `step` (ids at step-1's snapshot).
  std::vector<std::int64_t> progenitors(std::size_t step,
                                        std::int64_t id) const {
    std::vector<std::int64_t> out;
    for (const auto& l : links_)
      if (l.step + 1 == step && l.descendant == id)
        out.push_back(l.progenitor);
    return out;
  }

  /// Descendant of halo `id` at step `step`, or -1 if it dissolved.
  std::int64_t descendant(std::size_t step, std::int64_t id) const {
    for (const auto& l : links_)
      if (l.step == step && l.progenitor == id) return l.descendant;
    return -1;
  }

  /// Main branch: follow the descendant chain from (step, id) to the end.
  std::vector<std::pair<std::size_t, std::int64_t>> main_branch(
      std::size_t step, std::int64_t id) const {
    std::vector<std::pair<std::size_t, std::int64_t>> branch{{step, id}};
    std::int64_t cur = id;
    for (std::size_t s = step;; ++s) {
      const std::int64_t d = descendant(s, cur);
      if (d < 0) break;
      branch.emplace_back(s + 1, d);
      cur = d;
    }
    return branch;
  }

  /// Number of mergers (halos with ≥2 progenitors) arriving at `step`.
  std::size_t mergers_at(std::size_t step) const {
    std::map<std::int64_t, std::size_t> progenitor_count;
    for (const auto& l : links_)
      if (l.step + 1 == step) ++progenitor_count[l.descendant];
    std::size_t m = 0;
    for (const auto& [id, n] : progenitor_count)
      if (n >= 2) ++m;
    return m;
  }

 private:
  std::map<std::size_t, std::vector<TrackedHalo>> snapshots_;
  std::vector<MergerLink> links_;
};

}  // namespace cosmo::stats
