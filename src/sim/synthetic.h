// Synthetic clustered universe generator.
//
// The paper's workflow results are driven by one statistical property of the
// particle data: a halo population whose mass function has a long tail of
// rare, very large objects (the Q Continuum's handful of ~25M-particle halos
// among billions of 40-particle ones). Running a real N-body simulation to
// that regime is impossible here, so this generator plants an explicit halo
// catalog — masses drawn from a power-law mass function, NFW radial
// profiles, optional sub-clumps — plus a uniform background. It produces
// Level 1 particle data with the right clustering *shape* at laptop sizes,
// and returns the ground-truth catalog so analysis results are verifiable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "sim/cosmology.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "util/error.h"
#include "util/rng.h"

namespace cosmo::sim {

struct SyntheticConfig {
  double box = 64.0;            ///< Mpc/h
  std::uint64_t seed = 2015;
  std::size_t halo_count = 200;         ///< number of planted halos
  std::size_t min_particles = 40;       ///< smallest halo (FOF floor)
  std::size_t max_particles = 100000;   ///< largest halo (the rare monster)
  double mass_slope = 1.9;              ///< dn/dm ∝ m^-slope
  std::size_t background_particles = 20000;  ///< uniform unclustered field
  double concentration = 5.0;           ///< NFW c = r_vir / r_s
  double subclump_fraction = 0.1;       ///< mass fraction in subhalos
  std::size_t subclump_min_host = 5000; ///< plant subclumps above this size
};

/// Ground truth for one planted halo.
struct TruthHalo {
  double cx, cy, cz;           ///< center (Mpc/h)
  std::size_t particles;       ///< particle count (mass ∝ this)
  double r_vir;                ///< virial-ish radius used for sampling
  std::int64_t first_tag;      ///< tags are [first_tag, first_tag+particles)
  std::size_t subclumps;       ///< planted substructure count
};

struct SyntheticUniverse {
  ParticleSet local;               ///< this rank's slab of Level 1 particles
  std::vector<TruthHalo> truth;    ///< global catalog (same on every rank)
  std::uint64_t total_particles;   ///< global particle count
};

namespace detail {

/// NFW enclosed-mass profile μ(x) = ln(1+x) − x/(1+x).
inline double nfw_mu(double x) { return std::log1p(x) - x / (1.0 + x); }

/// B per unit x: |nfw_mu(x) − μ(x)| ≤ kNfwMuErrPerX·x for x ≥ 0. glibc
/// documents log1p at 1 ulp (x86_64 double, "Known Maximum Errors in Math
/// Functions"), and ulp(log1p x) ≤ 2^-52·log1p x ≤ 2^-52·x. Forming 1 + x
/// and the quotient round twice, ≤ 1.01·2^-52·x; the difference rounds
/// once more, ≤ 2^-53·x. The sum is below 2.51·2^-52·x, and 2^-47 is 12.7
/// times that. The margin also absorbs the half-ulp roundings of the
/// comparisons that use B.
inline constexpr double kNfwMuErrPerX = 0x1p-47;

/// The NFW radius sampler: x in [0, c] with μ(x) = u·μ(c), for u in
/// [0, 1]. Returns the bits of 60 bisection steps
///
///   lo = 0, hi = c; 60 times: mid = (lo + hi)/2;
///                             (nfw_mu(mid) < u·nfw_mu(c) ? lo : hi) = mid;
///   return (lo + hi)/2
///
/// with far fewer nfw_mu calls:
///   * The top kMemoLevels levels of that bisection tree are the same for
///     every u, so their mids and nfw_mu values are memoised once per c.
///   * From the bracket they leave, a Newton root x* gives a band
///     [a, b] around the answer. nfw_mu(a) < t − 2B proves every mid ≤ a
///     lies below the target t: nfw_mu(mid) ≤ μ(mid) + B ≤ μ(a) + B ≤
///     nfw_mu(a) + 2B < t, with μ increasing and B = kNfwMuErrPerX·hi
///     bounding the error on the bracket. Likewise nfw_mu(b) − 2B ≥ t
///     proves every mid ≥ b lies above. Only mids inside the band are
///     evaluated; a side that fails its certificate evaluates all its mids.
///   * The loop stops at its fixed point mid == lo or mid == hi, where the
///     remaining steps change nothing: there lo > 0 (60 halvings of
///     c ≥ 1e-100 stay far above the subnormals), and a positive lo was
///     set on a true comparison; hi was set on a false one, or is c, which
///     never compares below u·μ(c).
/// So the result depends on u and c alone, never on the quality of x*.
/// About 15 nfw_mu calls replace 60.
class NfwInverse {
 public:
  explicit NfwInverse(double c) : c_(c), mu_c_(nfw_mu(c)) {
    COSMO_REQUIRE(std::isfinite(c) && c >= 1e-100,
                  "NFW concentration must be finite and at least 1e-100");
    memo_.resize((std::size_t{1} << kMemoLevels) - 1);
    memoise(0, 0.0, c);
  }

  double operator()(double u) const {
    const Bracket br = descend(u);
    // Newton from the secant through the bracket's memoised ends;
    // μ'(x) = x / (1+x)².
    double x = br.lo + (br.hi - br.lo) *
                           ((br.target - br.mu_lo) / (br.mu_hi - br.mu_lo));
    for (int k = 0; k < kNewtonSteps; ++k) {
      const double s = 1.0 + x;
      x -= (nfw_mu(x) - br.target) * s * s / x;
    }
    // u = 0 starts Newton at x = 0, which makes x and the band NaN; a NaN
    // band fails both certificates.
    const double s = 1.0 + x;
    const double w = kBandHalfWidth * kNfwMuErrPerX * br.hi * s * s / x;
    return finish(br, x - w, x + w);
  }

  /// operator()'s bits with a caller's band in place of the Newton one.
  /// Any a and b give them (reversed, outside the bracket, NaN); the band
  /// only decides how many nfw_mu calls it takes. Tests use this to
  /// probe the certificates.
  double operator()(double u, double a, double b) const {
    return finish(descend(u), a, b);
  }

 private:
  static constexpr int kSteps = 60;
  static constexpr int kMemoLevels = 10;
  static constexpr int kNewtonSteps = 2;
  /// Band half-width in units of B/μ'(x*): room for the 2B margin plus
  /// the Newton root's own error.
  static constexpr double kBandHalfWidth = 2.5;

  struct Node {
    double mid, mu;
  };
  struct Bracket {
    double target, lo, hi, mu_lo, mu_hi;
  };

  /// Heap order: the children of node i are 2i+1 (below) and 2i+2.
  void memoise(std::size_t node, double lo, double hi) {
    if (node >= memo_.size()) return;
    const double mid = 0.5 * (lo + hi);
    memo_[node] = {mid, nfw_mu(mid)};
    memoise(2 * node + 1, lo, mid);
    memoise(2 * node + 2, mid, hi);
  }

  /// The first kMemoLevels bisection steps, read from the memo.
  Bracket descend(double u) const {
    Bracket br{u * mu_c_, 0.0, c_, 0.0, mu_c_};  // nfw_mu(0) == 0 exactly
    std::size_t node = 0;
    while (node < memo_.size()) {
      const Node& n = memo_[node];
      if (n.mu < br.target) {
        br.lo = n.mid;
        br.mu_lo = n.mu;
        node = 2 * node + 2;
      } else {
        br.hi = n.mid;
        br.mu_hi = n.mu;
        node = 2 * node + 1;
      }
    }
    return br;
  }

  /// The remaining bisection steps, certifying the band [a, b] first.
  double finish(const Bracket& br, double a, double b) const {
    const double bound = kNfwMuErrPerX * br.hi;
    if (!(br.lo < a && a < br.hi &&
          nfw_mu(a) < br.target - 2.0 * bound))
      a = -std::numeric_limits<double>::infinity();
    if (!(br.lo < b && b < br.hi &&
          nfw_mu(b) - 2.0 * bound >= br.target))
      b = std::numeric_limits<double>::infinity();
    double lo = br.lo, hi = br.hi;
    for (int step = kMemoLevels; step < kSteps; ++step) {
      const double mid = 0.5 * (lo + hi);
      if (mid == lo || mid == hi) break;
      const bool below = mid <= a   ? true
                         : mid >= b ? false
                                    : nfw_mu(mid) < br.target;
      (below ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }

  double c_, mu_c_;
  std::vector<Node> memo_;
};

/// Power-law mass sample via inverse CDF: pdf ∝ m^-slope on [mmin, mmax].
inline double powerlaw_mass(Rng& rng, double mmin, double mmax, double slope) {
  const double g = 1.0 - slope;
  if (std::abs(g) < 1e-9) {
    // slope == 1: log-uniform.
    return mmin * std::pow(mmax / mmin, rng.uniform());
  }
  const double lo = std::pow(mmin, g), hi = std::pow(mmax, g);
  return std::pow(lo + rng.uniform() * (hi - lo), 1.0 / g);
}

/// An isotropic direction as drawn: cos θ uniform on [-1, 1), then φ.
struct Direction {
  double cos_theta, phi;
};

inline Direction draw_direction(Rng& rng) {
  const double cos_theta = rng.uniform(-1.0, 1.0);
  const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {cos_theta, phi};
}

/// Its unit vector.
inline void unit_vector(const Direction& d, double& ux, double& uy,
                        double& uz) {
  const double s = std::sqrt(1.0 - d.cos_theta * d.cos_theta);
  ux = s * std::cos(d.phi);
  uy = s * std::sin(d.phi);
  uz = d.cos_theta;
}

/// NFW-distributed particles, sampled in two passes into consecutive
/// indices of a pre-sized ParticleSet, starting at index 0. draw() is the
/// serial pass: it consumes a blob's variates from its stream in the
/// generator's order (per particle u, cos θ, φ, then vz, vy, vx) and
/// writes velocities and tags. The radius solve and the positions run on
/// the dpp pool, kBatch particles at a time, so the scratch stays small
/// and a rank's solve spreads over idle cores. Every particle's bits come
/// from its own draws, so the pool changes nothing but the time. σ_v
/// scales like sqrt(M/r) (arbitrary normalization — analysis kernels
/// only need a sensible velocity structure, not calibrated orbits).
class NfwSampler {
 public:
  NfwSampler(ParticleSet& out, double concentration)
      : out_(out), conc_(concentration), inverse_(concentration) {
    draws_.reserve(kBatch);
  }

  const NfwInverse& inverse() const { return inverse_; }

  /// Draws `count` particles around (cx, cy, cz) with tags tag0, tag0+1, …
  void draw(Rng& rng, double cx, double cy, double cz, double r_vir,
            std::size_t count, std::int64_t tag0, double sigma_v) {
    COSMO_REQUIRE(next_ + count <= out_.size(),
                  "NFW sampler output set is too small");
    const auto blob = static_cast<std::uint32_t>(blobs_.size());
    blobs_.push_back({cx, cy, cz, r_vir / conc_});
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng.uniform();
      const Direction dir = draw_direction(rng);
      const std::size_t j = next_++;
      out_.vz[j] = static_cast<float>(rng.normal(0.0, sigma_v));
      out_.vy[j] = static_cast<float>(rng.normal(0.0, sigma_v));
      out_.vx[j] = static_cast<float>(rng.normal(0.0, sigma_v));
      out_.tag[j] = tag0 + static_cast<std::int64_t>(i);
      draws_.push_back({u, dir, blob});
      if (draws_.size() == kBatch) flush();
    }
  }

  /// Solves every particle drawn so far. Call once after the last draw.
  void flush() {
    const std::size_t first = next_ - draws_.size();
    dpp::for_each_chunk(
        dpp::Backend::ThreadPool, draws_.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const Draw& d = draws_[k];
            const Blob& b = blobs_[d.blob];
            const double r = inverse_(d.u) * b.r_s;
            double ux, uy, uz;
            unit_vector(d.dir, ux, uy, uz);
            out_.x[first + k] = static_cast<float>(b.cx + r * ux);
            out_.y[first + k] = static_cast<float>(b.cy + r * uy);
            out_.z[first + k] = static_cast<float>(b.cz + r * uz);
          }
        },
        kGrain);
    draws_.clear();
  }

 private:
  /// Particles per solve pass (32 B of scratch each), and per pool chunk.
  static constexpr std::size_t kBatch = 2048;
  static constexpr std::size_t kGrain = 64;

  struct Blob {
    double cx, cy, cz, r_s;
  };
  struct Draw {
    double u;
    Direction dir;
    std::uint32_t blob;
  };

  ParticleSet& out_;
  double conc_;
  NfwInverse inverse_;
  std::size_t next_ = 0;
  std::vector<Blob> blobs_;
  std::vector<Draw> draws_;
};

}  // namespace detail

/// Virial-style radius for a halo of n equal-mass particles: chosen so the
/// mean density inside r_vir is 200× the cosmic mean. This makes planted
/// halos compact relative to any sensible FOF linking length.
inline double synthetic_halo_radius(const Cosmology& cosmo, double box,
                                    std::uint64_t total_particles,
                                    std::size_t n) {
  const double m_p = cosmo.mean_density() * box * box * box /
                     static_cast<double>(total_particles);
  const double m = m_p * static_cast<double>(n);
  const double rho = 200.0 * cosmo.mean_density();
  return std::cbrt(3.0 * m / (4.0 * std::numbers::pi * rho));
}

/// Total particle count implied by a config, without generating particles
/// (replays the catalog pass — deterministic, rank-independent).
inline std::uint64_t synthetic_total_particles(const SyntheticConfig& cfg) {
  Rng cat_rng(cfg.seed, 0);
  std::uint64_t halo_particles = 0;
  for (std::size_t h = 0; h < cfg.halo_count; ++h) {
    halo_particles += static_cast<std::size_t>(detail::powerlaw_mass(
        cat_rng, static_cast<double>(cfg.min_particles),
        static_cast<double>(cfg.max_particles) + 0.999, cfg.mass_slope));
    cat_rng.uniform(0.0, cfg.box);
    cat_rng.uniform(0.0, cfg.box);
    cat_rng.uniform(0.0, cfg.box);
  }
  return halo_particles + cfg.background_particles;
}

/// Builds the universe. The halo catalog is generated identically on every
/// rank (same seed); each rank samples particles only for halos whose
/// centers it owns, then everything is redistributed to its owner slab.
inline SyntheticUniverse generate_synthetic(comm::Comm& comm,
                                            const Cosmology& cosmo,
                                            const SyntheticConfig& cfg) {
  COSMO_REQUIRE(cfg.min_particles >= 2, "halos need at least two particles");
  COSMO_REQUIRE(cfg.max_particles >= cfg.min_particles,
                "max_particles below min_particles");
  SlabDecomposition decomp(comm.size(), cfg.box);

  // Pass 1 (identical on all ranks): the halo catalog.
  Rng cat_rng(cfg.seed, 0);
  SyntheticUniverse u;
  u.truth.reserve(cfg.halo_count);
  std::uint64_t halo_particles = 0;
  for (std::size_t h = 0; h < cfg.halo_count; ++h) {
    TruthHalo t{};
    t.particles = static_cast<std::size_t>(detail::powerlaw_mass(
        cat_rng, static_cast<double>(cfg.min_particles),
        static_cast<double>(cfg.max_particles) + 0.999, cfg.mass_slope));
    t.cx = cat_rng.uniform(0.0, cfg.box);
    t.cy = cat_rng.uniform(0.0, cfg.box);
    t.cz = cat_rng.uniform(0.0, cfg.box);
    t.first_tag = static_cast<std::int64_t>(halo_particles);
    halo_particles += t.particles;
    u.truth.push_back(t);
  }
  u.total_particles = halo_particles + cfg.background_particles;

  // Radii need the global particle count, so fill them in a second sweep.
  for (auto& t : u.truth) {
    t.r_vir = synthetic_halo_radius(cosmo, cfg.box, u.total_particles,
                                    t.particles);
    t.subclumps = (t.particles >= cfg.subclump_min_host &&
                   cfg.subclump_fraction > 0.0)
                      ? 2 + t.particles / (4 * cfg.subclump_min_host)
                      : 0;
  }

  // Pass 2: sample particles for the halos this rank owns, then its share
  // of the background, into one pre-sized set in that order.
  const auto P = static_cast<std::size_t>(comm.size());
  const auto rank = static_cast<std::size_t>(comm.rank());
  const std::size_t n_bg = cfg.background_particles / P +
                           (rank < cfg.background_particles % P ? 1 : 0);
  std::size_t n_halo = 0;
  for (const auto& t : u.truth)
    if (decomp.owner_of(t.cz) == comm.rank()) n_halo += t.particles;
  ParticleSet mine(n_halo + n_bg);
  detail::NfwSampler nfw(mine, cfg.concentration);
  for (std::size_t h = 0; h < u.truth.size(); ++h) {
    const TruthHalo& t = u.truth[h];
    if (decomp.owner_of(t.cz) != comm.rank()) continue;
    Rng rng(cfg.seed, 1000 + h);  // per-halo stream: rank-count independent
    const double sigma_v =
        0.05 * std::sqrt(static_cast<double>(t.particles) / t.r_vir);
    std::size_t remaining = t.particles;
    std::int64_t tag = t.first_tag;
    // Substructure: carve off subclump_fraction of the mass into smaller
    // NFW blobs inside the host — the subhalo finder's targets.
    if (t.subclumps > 0) {
      const auto sub_total = static_cast<std::size_t>(
          cfg.subclump_fraction * static_cast<double>(t.particles));
      for (std::size_t s = 0; s < t.subclumps && remaining > 0; ++s) {
        std::size_t sub_n = sub_total / t.subclumps;
        if (sub_n < 50) sub_n = 50;
        if (sub_n > remaining) sub_n = remaining;
        // Place the clump at an NFW-weighted radius inside the host.
        const double xr = nfw.inverse()(rng.uniform());
        double ux, uy, uz;
        detail::unit_vector(detail::draw_direction(rng), ux, uy, uz);
        const double r_host = xr * (t.r_vir / cfg.concentration);
        const double sub_r = synthetic_halo_radius(cosmo, cfg.box,
                                                   u.total_particles, sub_n);
        nfw.draw(rng, t.cx + r_host * ux, t.cy + r_host * uy,
                 t.cz + r_host * uz, sub_r, sub_n, tag, 0.3 * sigma_v);
        tag += static_cast<std::int64_t>(sub_n);
        remaining -= sub_n;
      }
    }
    nfw.draw(rng, t.cx, t.cy, t.cz, t.r_vir, remaining, tag, sigma_v);
  }
  nfw.flush();

  // Background field: split evenly across ranks (per-rank streams). The
  // draw order is the one the golden CRCs fix: velocities z to x, then
  // positions z to x.
  {
    Rng rng(cfg.seed, 500000 + static_cast<std::uint64_t>(comm.rank()));
    const std::int64_t tag =
        static_cast<std::int64_t>(halo_particles) +
        static_cast<std::int64_t>(
            rank * (cfg.background_particles / P) +
            std::min<std::size_t>(rank, cfg.background_particles % P));
    for (std::size_t i = 0; i < n_bg; ++i) {
      const std::size_t j = n_halo + i;
      mine.vz[j] = static_cast<float>(rng.normal(0.0, 1.0));
      mine.vy[j] = static_cast<float>(rng.normal(0.0, 1.0));
      mine.vx[j] = static_cast<float>(rng.normal(0.0, 1.0));
      mine.z[j] = static_cast<float>(rng.uniform(0.0, cfg.box));
      mine.y[j] = static_cast<float>(rng.uniform(0.0, cfg.box));
      mine.x[j] = static_cast<float>(rng.uniform(0.0, cfg.box));
      mine.tag[j] = tag + static_cast<std::int64_t>(i);
    }
  }

  u.local = decomp.redistribute(comm, std::move(mine));
  return u;
}

}  // namespace cosmo::sim
