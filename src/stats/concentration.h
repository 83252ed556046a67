// Halo concentration — a Level 3 product the paper names explicitly
// (Table 1: "mass functions concentrations"; §3.3.2: "The concentration is
// determined from the density profile of the halo as a function of radius —
// if the center is not exactly at the density maximum, the concentration
// will be underestimated").
//
// Estimator: fit the NFW enclosed-mass profile by matching the measured
// half-mass radius. For an NFW halo, M(<r)/M_vir = μ(c·r/r_vir)/μ(c) with
// μ(x) = ln(1+x) − x/(1+x); the half-mass condition μ(c·x_half)/μ(c) = 1/2
// is monotone in c, so the concentration follows from a bisection on c
// given the measured r_half/r_vir. Cheap, robust, and center-sensitive —
// exactly the property the paper uses to argue for accurate MBP centers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dpp/primitives.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::stats {

namespace detail {
inline double nfw_mu(double x) { return std::log1p(x) - x / (1.0 + x); }
}  // namespace detail

struct ConcentrationResult {
  double c = 0.0;        ///< NFW concentration (0 if indeterminate)
  double r_half = 0.0;   ///< half-mass radius
  double r_outer = 0.0;  ///< outermost-member radius used as r_vir proxy
};

/// Expected half-mass radius fraction x_half = r_half/r_vir for an NFW halo
/// of concentration c (solves μ(c·x)/μ(c) = 1/2 for x).
inline double nfw_half_mass_fraction(double c) {
  COSMO_REQUIRE(c > 0.0, "concentration must be positive");
  const double target = 0.5 * detail::nfw_mu(c);
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    (detail::nfw_mu(c * mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// Fast half-mass-radius concentration estimate: matches the measured
/// r_half/r_outer against the NFW expectation. Cheap but insensitive to
/// core flattening; prefer concentration_profile_fit for science use.
inline ConcentrationResult concentration(const sim::ParticleSet& p,
                                         std::span<const std::uint32_t> members,
                                         double cx, double cy, double cz,
                                         double box = 0.0,
                                         dpp::Backend backend =
                                             dpp::Backend::Serial) {
  ConcentrationResult out;
  if (members.size() < 20) return out;
  // Elementwise, so bit-identical across backends.
  std::vector<double> r2(members.size());
  dpp::tabulate<double>(backend, r2, [&](std::size_t k) {
    const auto i = members[k];
    const double dx = p.x[i] - cx, dy = p.y[i] - cy, dz = p.z[i] - cz;
    return box > 0.0 ? sim::periodic_dist2(dx, dy, dz, box)
                     : dx * dx + dy * dy + dz * dz;
  });
  std::sort(r2.begin(), r2.end());
  out.r_outer = std::sqrt(r2.back());
  out.r_half = std::sqrt(r2[r2.size() / 2]);
  if (out.r_outer <= 0.0 || out.r_half <= 0.0) return out;
  const double x_half = out.r_half / out.r_outer;

  // x_half(c) is monotonically decreasing in c; bracket and bisect.
  double c_lo = 0.1, c_hi = 100.0;
  if (x_half >= nfw_half_mass_fraction(c_lo) ||
      x_half <= nfw_half_mass_fraction(c_hi))
    return out;  // outside the NFW family: report indeterminate
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (c_lo + c_hi);
    (nfw_half_mass_fraction(mid) > x_half ? c_lo : c_hi) = mid;
  }
  out.c = 0.5 * (c_lo + c_hi);
  return out;
}

/// Concentration from a least-squares NFW fit to the binned radial density
/// profile — "determined from the density profile of the halo as a function
/// of radius" (§3.3.2). For each candidate c the density normalization has
/// a closed form in log space (the mean log-residual), so the fit is a 1-D
/// scan over c. An inaccurate center flattens the measured inner profile
/// and drives the best-fit c down — the underestimate the paper warns
/// about, and the reason the expensive MBP center is worth computing.
inline ConcentrationResult concentration_profile_fit(
    const sim::ParticleSet& p, std::span<const std::uint32_t> members,
    double cx, double cy, double cz, double box = 0.0,
    std::size_t bins = 16, dpp::Backend backend = dpp::Backend::Serial) {
  ConcentrationResult out;
  if (members.size() < 100) return out;
  // Elementwise, so bit-identical across backends.
  std::vector<double> r(members.size());
  dpp::tabulate<double>(backend, r, [&](std::size_t k) {
    const auto i = members[k];
    const double dx = p.x[i] - cx, dy = p.y[i] - cy, dz = p.z[i] - cz;
    const double d2 = box > 0.0 ? sim::periodic_dist2(dx, dy, dz, box)
                                : dx * dx + dy * dy + dz * dz;
    return std::sqrt(d2);
  });
  std::sort(r.begin(), r.end());
  out.r_outer = r.back();
  out.r_half = r[r.size() / 2];
  if (out.r_outer <= 0.0) return out;

  // Log-spaced shells from r_outer/50 to r_outer.
  const double r_min = out.r_outer / 50.0;
  std::vector<double> log_rho(bins), log_r(bins);
  std::vector<bool> valid(bins, false);
  const double lgmin = std::log(r_min), lgmax = std::log(out.r_outer);
  const double dlg = (lgmax - lgmin) / static_cast<double>(bins);
  std::size_t idx = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double r_lo = std::exp(lgmin + dlg * static_cast<double>(b));
    const double r_hi = std::exp(lgmin + dlg * static_cast<double>(b + 1));
    while (idx < r.size() && r[idx] < r_lo) ++idx;
    std::size_t count = 0;
    while (idx < r.size() && r[idx] < r_hi) {
      ++count;
      ++idx;
    }
    if (count < 3) continue;
    const double vol =
        4.0 / 3.0 * 3.14159265358979323846 * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
    log_rho[b] = std::log(static_cast<double>(count) / vol);
    log_r[b] = 0.5 * (std::log(r_lo) + std::log(r_hi));
    valid[b] = true;
  }

  // 1-D scan over c; per-c the normalization is the mean log residual.
  double best_sse = 1e300, best_c = 0.0;
  for (double c = 1.0; c <= 40.0; c *= 1.05) {
    const double rs = out.r_outer / c;
    double mean_resid = 0.0;
    int n_valid = 0;
    for (std::size_t b = 0; b < bins; ++b) {
      if (!valid[b]) continue;
      const double x = std::exp(log_r[b]) / rs;
      const double shape = -std::log(x) - 2.0 * std::log1p(x);
      mean_resid += log_rho[b] - shape;
      ++n_valid;
    }
    if (n_valid < 4) continue;
    mean_resid /= n_valid;
    double sse = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
      if (!valid[b]) continue;
      const double x = std::exp(log_r[b]) / rs;
      const double model = mean_resid - std::log(x) - 2.0 * std::log1p(x);
      const double d = log_rho[b] - model;
      sse += d * d;
    }
    if (sse < best_sse) {
      best_sse = sse;
      best_c = c;
    }
  }
  out.c = best_c;
  return out;
}

}  // namespace cosmo::stats
