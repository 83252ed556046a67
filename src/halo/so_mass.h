// Spherical-overdensity (SO) halo mass (§3.3.2, §4.1 task 5).
//
// Seeded at the halo's MBP center, the SO radius r_Δ is where the mean
// enclosed density first drops below Δ times the reference density; the SO
// mass is the enclosed mass. Fast (a sort by radius plus one sweep), which
// is why the paper runs it in-situ — but it *depends on the center*, which
// is why the halo analysis pipeline is sequential (find → center → SO).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "dpp/primitives.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::halo {

struct SoConfig {
  double delta = 200.0;        ///< overdensity threshold (Δ)
  double mean_density = 1.0;   ///< reference density, mass units / length³
  double particle_mass = 1.0;  ///< mass per particle
  double box = 0.0;            ///< periodic box (0 = non-periodic)
  dpp::Backend backend = dpp::Backend::Serial;  ///< r² tabulation
};

struct SoResult {
  double radius = 0.0;        ///< r_Δ
  double mass = 0.0;          ///< M_Δ = particles_inside × particle_mass
  std::size_t count = 0;      ///< particles within r_Δ
};

/// Computes the SO mass around (cx, cy, cz) from the given member
/// particles. Walks outward in radius; returns the largest radius at which
/// the enclosed density still exceeds Δ·ρ_ref.
inline SoResult so_mass(const sim::ParticleSet& p,
                        std::span<const std::uint32_t> members, double cx,
                        double cy, double cz, const SoConfig& cfg) {
  COSMO_REQUIRE(cfg.delta > 0.0 && cfg.mean_density > 0.0,
                "SO threshold and density must be positive");
  // Elementwise, so the values are bit-identical across backends.
  std::vector<double> r2(members.size());
  dpp::tabulate<double>(cfg.backend, r2, [&](std::size_t k) {
    const std::uint32_t i = members[k];
    const double dx = cx - p.x[i], dy = cy - p.y[i], dz = cz - p.z[i];
    return cfg.box > 0.0 ? sim::periodic_dist2(dx, dy, dz, cfg.box)
                         : dx * dx + dy * dy + dz * dz;
  });
  std::sort(r2.begin(), r2.end());

  const double threshold = cfg.delta * cfg.mean_density;
  SoResult best;
  for (std::size_t k = 0; k < r2.size(); ++k) {
    const double r = std::sqrt(r2[k]);
    if (r <= 0.0) continue;
    const double volume = 4.0 / 3.0 * std::numbers::pi * r * r * r;
    const double enclosed_mass =
        static_cast<double>(k + 1) * cfg.particle_mass;
    if (enclosed_mass / volume >= threshold) {
      best.radius = r;
      best.mass = enclosed_mass;
      best.count = k + 1;
    }
  }
  return best;
}

}  // namespace cosmo::halo
