// Density fluctuation power spectrum — the paper's flagship "efficient
// in-situ task" (§1): CIC density estimation on a uniform grid plus a very
// large FFT, both well load-balanced, so it ran every few timesteps of the
// production simulations.
//
// Uses the same discrete conventions as the IC generator (ic.h):
// P_meas(k) = ⟨|δ̂_k|²⟩ V / N², binned in spherical |k| shells, with the
// CIC window deconvolved and (optionally) the 1/n̄ shot noise subtracted.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "comm/comm.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "sim/particles.h"
#include "sim/pm_solver.h"
#include "util/error.h"

namespace cosmo::stats {

struct PowerSpectrumConfig {
  std::size_t grid = 64;          ///< FFT grid per dimension
  std::size_t bins = 16;          ///< |k| bins between k_fund and k_Nyquist
  bool subtract_shot_noise = true;
  bool deconvolve_cic = true;
};

struct PowerSpectrum {
  std::vector<double> k;        ///< bin-averaged |k| (h/Mpc)
  std::vector<double> power;    ///< P(k) in (Mpc/h)³
  std::vector<std::uint64_t> modes;  ///< modes per bin
};

/// Measures P(k) of the rank-distributed particle set. Collective call.
/// `particles` must already be distributed by the slab decomposition
/// matching the communicator.
inline PowerSpectrum measure_power_spectrum(comm::Comm& comm,
                                            const sim::ParticleSet& particles,
                                            double box,
                                            std::uint64_t total_particles,
                                            const PowerSpectrumConfig& cfg) {
  COSMO_REQUIRE(total_particles > 0, "power spectrum of an empty universe");
  const std::size_t ng = cfg.grid;
  fft::DistributedFft dfft(comm, ng);
  const std::size_t nzl = dfft.slab_thickness();

  // CIC overdensity on the slab, through the PM deposit machinery. The
  // deposit and the FFT both run on their Serial default.
  sim::Cosmology cosmo;  // deposit only needs geometry, not parameters
  sim::PmSolver pm(comm, cosmo, ng, box);
  const double mean_per_cell =
      static_cast<double>(total_particles) /
      (static_cast<double>(ng) * static_cast<double>(ng) * static_cast<double>(ng));
  sim::SlabField delta = pm.deposit_density(particles, mean_per_cell);

  std::vector<fft::Complex> slab(dfft.local_size());
  for (long zl = 0; zl < static_cast<long>(nzl); ++zl)
    for (std::size_t y = 0; y < ng; ++y)
      for (std::size_t x = 0; x < ng; ++x)
        slab[(static_cast<std::size_t>(zl) * ng + y) * ng + x] =
            fft::Complex(delta.at(x, y, zl), 0.0);
  dfft.forward(slab);

  const double volume = box * box * box;
  const double n_total = static_cast<double>(ng) * static_cast<double>(ng) *
                         static_cast<double>(ng);
  const double kfun = 2.0 * std::numbers::pi / box;
  const double knyq = kfun * static_cast<double>(ng) / 2.0;
  const double shot = volume / static_cast<double>(total_particles);

  std::vector<double> psum(cfg.bins, 0.0);
  std::vector<double> ksum(cfg.bins, 0.0);
  std::vector<std::uint64_t> count(cfg.bins, 0);

  const std::size_t ky0 = dfft.slab_start();
  for (std::size_t kyl = 0; kyl < nzl; ++kyl) {
    const long my = fft::freq_index(ky0 + kyl, ng);
    for (std::size_t kx = 0; kx < ng; ++kx) {
      const long mx = fft::freq_index(kx, ng);
      for (std::size_t kz = 0; kz < ng; ++kz) {
        const long mz = fft::freq_index(kz, ng);
        if (mx == 0 && my == 0 && mz == 0) continue;
        const double kxv = kfun * static_cast<double>(mx);
        const double kyv = kfun * static_cast<double>(my);
        const double kzv = kfun * static_cast<double>(mz);
        const double k = std::sqrt(kxv * kxv + kyv * kyv + kzv * kzv);
        if (k < kfun || k >= knyq) continue;
        const auto b = static_cast<std::size_t>((k - kfun) / (knyq - kfun) *
                                                static_cast<double>(cfg.bins));
        if (b >= cfg.bins) continue;
        double p = std::norm(slab[(kyl * ng + kx) * ng + kz]) * volume /
                   (n_total * n_total);
        if (cfg.deconvolve_cic) {
          // CIC window: W(k) = Π sinc²(π m / (2·n_g/2)) per axis, squared in
          // power → divide by W².
          auto sinc = [](double x) { return x == 0.0 ? 1.0 : std::sin(x) / x; };
          const double half = std::numbers::pi / static_cast<double>(ng);
          const double w = sinc(half * static_cast<double>(mx)) *
                           sinc(half * static_cast<double>(my)) *
                           sinc(half * static_cast<double>(mz));
          const double w2 = w * w;
          p /= (w2 * w2);  // CIC = squared NGP window
        }
        if (cfg.subtract_shot_noise) p -= shot;
        psum[b] += p;
        ksum[b] += k;
        ++count[b];
      }
    }
  }

  // Combine across ranks.
  auto psum_all = comm.allreduce<double>(psum, comm::ReduceOp::Sum);
  auto ksum_all = comm.allreduce<double>(ksum, comm::ReduceOp::Sum);
  auto count_all = comm.allreduce<std::uint64_t>(count, comm::ReduceOp::Sum);

  PowerSpectrum out;
  for (std::size_t b = 0; b < cfg.bins; ++b) {
    if (count_all[b] == 0) continue;
    out.k.push_back(ksum_all[b] / static_cast<double>(count_all[b]));
    out.power.push_back(psum_all[b] / static_cast<double>(count_all[b]));
    out.modes.push_back(count_all[b]);
  }
  return out;
}

}  // namespace cosmo::stats
