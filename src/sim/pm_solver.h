// Distributed particle-mesh (PM) gravity solver.
//
// The HACC stand-in: Cloud-In-Cell density deposit onto a slab-decomposed
// grid, FFT Poisson solve with the comoving Green's function, and CIC force
// interpolation back to the particles. Follows the standard PM code-unit
// scheme (Kravtsov's PM notes): positions in grid cells, the scale factor a
// as the time variable, momentum p = a² dx/dt (t in 1/H0 units), and
//
//   ∇²φ = (3/2) (Ω_m / a) δ,     δ = ρ/ρ̄ − 1.
//
// Leapfrog (KDK across one Δa):
//   p += −∇φ · f(a) Δa            with f(a) = 1 / (a E(a))
//   x += p / a² · f(a) Δa.
//
// The slab decomposition matches DistributedFft's, so deposits and force
// reads only ever touch one ghost plane on each side of a rank's slab.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <numbers>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "obs/obs.h"
#include "sim/cosmology.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::sim {

/// Scalar field on this rank's z-slab with one ghost plane on each side.
/// Plane 0 is the ghost below, planes 1..nzl the owned region, plane nzl+1
/// the ghost above. Values are indexed in grid units.
class SlabField {
 public:
  SlabField(std::size_t ng, std::size_t nzl)
      : ng_(ng), nzl_(nzl), data_((nzl + 2) * ng * ng, 0.0) {}

  std::size_t ng() const { return ng_; }
  std::size_t nzl() const { return nzl_; }

  /// zl in [-1, nzl]: −1 and nzl address the ghost planes.
  double& at(std::size_t x, std::size_t y, long zl) {
    return data_[static_cast<std::size_t>(zl + 1) * ng_ * ng_ + y * ng_ + x];
  }
  double at(std::size_t x, std::size_t y, long zl) const {
    return data_[static_cast<std::size_t>(zl + 1) * ng_ * ng_ + y * ng_ + x];
  }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Whole storage including both ghost planes, in plane-major order —
  /// the accumulator layout the parallel deposit scatters into.
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  std::span<double> plane(long zl) {
    return {data_.data() + static_cast<std::size_t>(zl + 1) * ng_ * ng_,
            ng_ * ng_};
  }

 private:
  std::size_t ng_, nzl_;
  std::vector<double> data_;
};

class PmSolver {
 public:
  /// ng: grid points per dimension (power of two, divisible by ranks).
  PmSolver(comm::Comm& comm, const Cosmology& cosmo, std::size_t ng,
           double box)
      : comm_(&comm),
        cosmo_(&cosmo),
        fft_(comm, ng),
        decomp_(comm.size(), box),
        ng_(ng),
        box_(box) {
    COSMO_REQUIRE(box > 0.0, "box must be positive");
  }

  std::size_t ng() const { return ng_; }
  double box() const { return box_; }
  double cell() const { return box_ / static_cast<double>(ng_); }
  std::size_t nzl() const { return fft_.slab_thickness(); }
  std::size_t z0() const { return fft_.slab_start(); }
  const SlabDecomposition& decomposition() const { return decomp_; }

  /// Execution backend for every grid/particle loop of the solver: Green's
  /// function multiply, force interpolation, and (since the scatter-reduce
  /// primitive landed) the CIC deposit itself. Safe to share the pool with
  /// co-scheduled analysis ranks — the work-stealing scheduler interleaves
  /// dispatches; results are bit-identical to Serial either way (the
  /// deposit goes through dpp::deposit_reduce's fixed block-order merge).
  void set_backend(dpp::Backend b) {
    backend_ = b;
    fft_.set_backend(b);  // the FFT's row transforms + pack/unpack follow
  }
  dpp::Backend backend() const { return backend_; }

  /// CIC deposit of the rank's owned particles. Returns the local density
  /// slab as δ = ρ/ρ̄ − 1 (ghost contributions folded back onto owners).
  /// `mean_per_cell` is the global mean particle count per grid cell.
  SlabField deposit_density(const ParticleSet& p, double mean_per_cell) const {
    COSMO_REQUIRE(mean_per_cell > 0.0, "mean particle count must be positive");
    COSMO_TRACE_SPAN_CAT("sim.deposit", "sim");
    SlabField rho(ng_, nzl());
    const double inv_cell = 1.0 / cell();
    const auto zslab0 = static_cast<double>(z0());
    dpp::deposit_reduce<double>(
        backend_, p.size(), rho.data(),
        [&](std::span<double> buf, std::size_t i) {
          const double gx = p.x[i] * inv_cell;
          const double gy = p.y[i] * inv_cell;
          const double gz = p.z[i] * inv_cell - zslab0;  // slab-local plane
          deposit_cic(buf, gx, gy, gz, 1.0);
        });
    fold_ghost_planes(rho);
    // Normalize to overdensity — pure per-element map, one item per plane.
    dpp::for_each_index(backend_, nzl(), [&](std::size_t zl) {
      for (auto& v : rho.plane(static_cast<long>(zl)))
        v = v / mean_per_cell - 1.0;
    });
    return rho;
  }

  /// Solves ∇²φ = (3/2)(Ω_m/a) δ on the slab; fills φ's ghost planes.
  SlabField solve_potential(const SlabField& delta, double a) const {
    COSMO_TRACE_SPAN_CAT("sim.solve", "sim");
    std::vector<fft::Complex> slab(fft_.local_size());
    for (long zl = 0; zl < static_cast<long>(nzl()); ++zl)
      for (std::size_t y = 0; y < ng_; ++y)
        for (std::size_t x = 0; x < ng_; ++x)
          slab[(static_cast<std::size_t>(zl) * ng_ + y) * ng_ + x] =
              fft::Complex(delta.at(x, y, zl), 0.0);
    fft_.forward(slab);

    // Green's function in grid angular frequencies k_j = 2π m_j / ng
    // (lengths in grid units, matching the code-unit Poisson equation).
    const double prefac = -1.5 * cosmo_->params().omega_m / a;
    const double two_pi = 2.0 * std::numbers::pi;
    const std::size_t ky0 = fft_.slab_start();
    // One item per (kyl, kx) pencil — each runs a contiguous kz sweep of ng
    // multiplies, so a few pencils per chunk is already coarse enough to
    // amortize dispatch while leaving slack for the pool to steal.
    dpp::for_each_index(
        backend_, nzl() * ng_,
        [&](std::size_t t) {
          const std::size_t kyl = t / ng_;
          const std::size_t kx = t % ng_;
          const double ky = two_pi *
                            static_cast<double>(fft::freq_index(ky0 + kyl, ng_)) /
                            static_cast<double>(ng_);
          const double kxv = two_pi *
                             static_cast<double>(fft::freq_index(kx, ng_)) /
                             static_cast<double>(ng_);
          for (std::size_t kz = 0; kz < ng_; ++kz) {
            const double kzv = two_pi *
                               static_cast<double>(fft::freq_index(kz, ng_)) /
                               static_cast<double>(ng_);
            const double k2 = kxv * kxv + ky * ky + kzv * kzv;
            auto& v = slab[(kyl * ng_ + kx) * ng_ + kz];
            v = (k2 > 0.0) ? v * (prefac / k2) : fft::Complex(0.0, 0.0);
          }
        },
        /*grain=*/8);
    fft_.inverse(slab);

    SlabField phi(ng_, nzl());
    for (long zl = 0; zl < static_cast<long>(nzl()); ++zl)
      for (std::size_t y = 0; y < ng_; ++y)
        for (std::size_t x = 0; x < ng_; ++x)
          phi.at(x, y, zl) =
              slab[(static_cast<std::size_t>(zl) * ng_ + y) * ng_ + x].real();
    exchange_ghost_planes({&phi});
    return phi;
  }

  /// CIC-interpolated acceleration −∇φ at each particle (grid units).
  /// φ must have valid ghost planes (solve_potential provides them).
  ///
  /// The gradient is first evaluated by central differences on the owned
  /// planes (which only needs φ's single ghost layer), the gradient fields'
  /// own ghost planes are exchanged (one exchange for all three), and then
  /// each field is CIC-interpolated — so particles in the top half-cell of
  /// a slab read a valid plane.
  void accelerations(const SlabField& phi, const ParticleSet& p,
                     std::vector<double>& ax, std::vector<double>& ay,
                     std::vector<double>& az) const {
    COSMO_TRACE_SPAN_CAT("sim.accel", "sim");
    SlabField fx(ng_, nzl()), fy(ng_, nzl()), fz(ng_, nzl());
    // One item per (zl, y) grid row; rows write disjoint cells of fx/fy/fz
    // and only read phi, so the dispatch is race-free.
    dpp::for_each_index(
        backend_, nzl() * ng_,
        [&](std::size_t t) {
          const long zl = static_cast<long>(t / ng_);
          const std::size_t y = t % ng_;
          for (std::size_t x = 0; x < ng_; ++x) {
            fx.at(x, y, zl) =
                -0.5 * (phi.at(wrap(static_cast<long>(x) + 1), y, zl) -
                        phi.at(wrap(static_cast<long>(x) - 1), y, zl));
            fy.at(x, y, zl) =
                -0.5 * (phi.at(x, wrap(static_cast<long>(y) + 1), zl) -
                        phi.at(x, wrap(static_cast<long>(y) - 1), zl));
            fz.at(x, y, zl) =
                -0.5 * (phi.at(x, y, zl + 1) - phi.at(x, y, zl - 1));
          }
        },
        /*grain=*/8);
    exchange_ghost_planes({&fx, &fy, &fz});

    ax.assign(p.size(), 0.0);
    ay.assign(p.size(), 0.0);
    az.assign(p.size(), 0.0);
    const double inv_cell = 1.0 / cell();
    const auto zslab0 = static_cast<double>(z0());
    // Per-particle gather (8 reads per field) — light items, so a coarse
    // grain keeps chunk-claim traffic negligible relative to the work.
    dpp::for_each_index(
        backend_, p.size(),
        [&](std::size_t i) {
          const double gx = p.x[i] * inv_cell;
          const double gy = p.y[i] * inv_cell;
          const double gz = p.z[i] * inv_cell - zslab0;
          interp_force(fx, fy, fz, gx, gy, gz, ax[i], ay[i], az[i]);
        },
        /*grain=*/1024);
  }

  /// One KDK leapfrog step from a to a+da for the rank's owned particles.
  /// Positions are in Mpc/h; velocities store the code momentum p = a²ẋ in
  /// grid units. Re-redistributes particles to their owner slabs at the end.
  ParticleSet step(ParticleSet particles, double a, double da,
                   double global_particle_count) {
    COSMO_TRACE_SPAN_CAT("sim.step", "sim");
    const double mean_per_cell = global_particle_count /
                                 (static_cast<double>(ng_) *
                                  static_cast<double>(ng_) *
                                  static_cast<double>(ng_));
    auto kick_drift = [&](ParticleSet& p, double a_force, double dt_kick,
                          double a_drift, double dt_drift) {
      SlabField delta = deposit_density(p, mean_per_cell);
      SlabField phi = solve_potential(delta, a_force);
      std::vector<double> ax, ay, az;
      accelerations(phi, p, ax, ay, az);
      const double fk = dt_kick / (a_force * cosmo_->efunc(a_force));
      const double fd =
          dt_drift / (a_drift * a_drift * a_drift * cosmo_->efunc(a_drift));
      const auto cellsz = static_cast<float>(cell());
      for (std::size_t i = 0; i < p.size(); ++i) {
        p.vx[i] += static_cast<float>(ax[i] * fk);
        p.vy[i] += static_cast<float>(ay[i] * fk);
        p.vz[i] += static_cast<float>(az[i] * fk);
        p.x[i] += static_cast<float>(p.vx[i] * fd) * cellsz;
        p.y[i] += static_cast<float>(p.vy[i] * fd) * cellsz;
        p.z[i] += static_cast<float>(p.vz[i] * fd) * cellsz;
      }
    };
    // KDK with the kick evaluated at a and the drift at the midpoint.
    kick_drift(particles, a, da, a + 0.5 * da, da);
    return decomp_.redistribute(*comm_, std::move(particles));
  }

 private:
  /// One particle's cloud-in-cell stencil at grid position (gx, gy,
  /// gz-local): the two wrapped x columns, the two wrapped y rows (as
  /// offsets y·ng), the lower plane iz and the weights of each corner pair.
  struct CicStencil {
    long iz;
    std::size_t xx[2], yy[2];
    double wx[2], wy[2], wz[2];
  };

  CicStencil cic_stencil(double gx, double gy, double gz) const {
    const long ix = static_cast<long>(std::floor(gx));
    const long iy = static_cast<long>(std::floor(gy));
    const long iz = static_cast<long>(std::floor(gz));
    const double dx = gx - static_cast<double>(ix);
    const double dy = gy - static_cast<double>(iy);
    const double dz = gz - static_cast<double>(iz);
    return {iz,
            {wrap(ix), wrap(ix + 1)},
            {wrap(iy) * ng_, wrap(iy + 1) * ng_},
            {1.0 - dx, dx},
            {1.0 - dy, dy},
            {1.0 - dz, dz}};
  }

  /// Offset of plane zl in SlabField::data() layout (ghost plane first).
  std::size_t plane_offset(long zl) const {
    return static_cast<std::size_t>(zl + 1) * ng_ * ng_;
  }

  /// CIC deposit of weight w at grid position (gx, gy, gz-local) into a
  /// slab-shaped accumulator (SlabField::data() layout: ghost plane, nzl
  /// owned planes, ghost plane). Takes the raw span so the parallel
  /// deposit can scatter into per-block private buffers.
  void deposit_cic(std::span<double> slab, double gx, double gy, double gz,
                   double w) const {
    const CicStencil c = cic_stencil(gx, gy, gz);
    // Owned planes are [0, nzl); deposits may spill one plane either way.
    COSMO_REQUIRE(c.iz >= -1 && c.iz + 1 <= static_cast<long>(nzl()),
                  "particle deposits beyond ghost planes — redistribute first");
    for (int cz = 0; cz < 2; ++cz) {
      double* plane = slab.data() + plane_offset(c.iz + cz);
      for (int cy = 0; cy < 2; ++cy)
        for (int cx = 0; cx < 2; ++cx)
          plane[c.yy[cy] + c.xx[cx]] += w * c.wx[cx] * c.wy[cy] * c.wz[cz];
    }
  }

  /// CIC interpolation of the three force components at grid position
  /// (gx, gy, gz-local), sharing one stencil; each component sums its eight
  /// corners in the same order. Reads planes [0, nzl] — the upper ghost
  /// plane must be valid.
  void interp_force(const SlabField& fx, const SlabField& fy,
                    const SlabField& fz, double gx, double gy, double gz,
                    double& ax, double& ay, double& az) const {
    const CicStencil c = cic_stencil(gx, gy, gz);
    // Reads planes iz and iz+1; the slab (with ghosts) holds [-1, nzl].
    // A particle that drifted outside the slab would otherwise silently
    // read out-of-bounds heap — the deposit's matching guard fails fast.
    COSMO_REQUIRE(c.iz >= -1 && c.iz + 1 <= static_cast<long>(nzl()),
                  "particle reads beyond ghost planes — redistribute first");
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int cz = 0; cz < 2; ++cz) {
      const std::size_t plane = plane_offset(c.iz + cz);
      for (int cy = 0; cy < 2; ++cy)
        for (int cx = 0; cx < 2; ++cx) {
          const std::size_t j = plane + c.yy[cy] + c.xx[cx];
          const double w = c.wx[cx] * c.wy[cy] * c.wz[cz];
          sx += w * fx.data()[j];
          sy += w * fy.data()[j];
          sz += w * fz.data()[j];
        }
    }
    ax = sx;
    ay = sy;
    az = sz;
  }

  /// i mod ng on the periodic axis, negative i included: ng is a power of
  /// two (DistributedFft requires it), so a mask does the fold.
  std::size_t wrap(long i) const {
    return static_cast<std::size_t>(i) & (ng_ - 1);
  }

  /// Sends the ghost planes' accumulated deposits back to their owners.
  void fold_ghost_planes(SlabField& rho) const {
    if (comm_->size() == 1) {
      // Periodic self-fold.
      auto lo = rho.plane(-1);
      auto top = rho.plane(static_cast<long>(nzl()) - 1);
      for (std::size_t i = 0; i < lo.size(); ++i) top[i] += lo[i];
      auto hi = rho.plane(static_cast<long>(nzl()));
      auto bot = rho.plane(0);
      for (std::size_t i = 0; i < hi.size(); ++i) bot[i] += hi[i];
      return;
    }
    const int P = comm_->size();
    const int rank = comm_->rank();
    const int lo_nbr = (rank + P - 1) % P;
    const int hi_nbr = (rank + 1) % P;
    std::vector<std::vector<double>> send(static_cast<std::size_t>(P));
    auto lo = rho.plane(-1);
    auto hi = rho.plane(static_cast<long>(nzl()));
    // Append (not assign): with P == 2 both planes go to the same neighbor
    // and must concatenate in [lower spill, upper spill] order.
    auto& blo = send[static_cast<std::size_t>(lo_nbr)];
    blo.insert(blo.end(), lo.begin(), lo.end());
    auto& bhi = send[static_cast<std::size_t>(hi_nbr)];
    bhi.insert(bhi.end(), hi.begin(), hi.end());
    auto recv = comm_->alltoallv(send);
    // What the lower neighbor spilled upward lands on our plane 0; what the
    // upper neighbor spilled downward lands on our top plane.
    // With P == 2 both contributions come from the same neighbor rank; the
    // mailbox preserves order, but alltoallv concatenates both planes into
    // one buffer, so split by position.
    if (P == 2) {
      const auto& buf = recv[static_cast<std::size_t>(lo_nbr)];
      COSMO_REQUIRE(buf.size() == 2 * ng_ * ng_, "ghost fold size mismatch");
      auto bot = rho.plane(0);
      auto top = rho.plane(static_cast<long>(nzl()) - 1);
      // Neighbor sent [its lower spill, its upper spill] — its lower spill
      // targets our top plane, its upper spill targets our bottom plane...
      // unless the neighbor is both above and below (P == 2), in which case
      // order in `send` above was: lo_nbr gets plane(-1), hi_nbr gets
      // plane(nzl). Both are the same rank, and alltoallv concatenates in
      // the order sends were issued: [plane(-1), plane(nzl)].
      for (std::size_t i = 0; i < ng_ * ng_; ++i) top[i] += buf[i];
      for (std::size_t i = 0; i < ng_ * ng_; ++i) bot[i] += buf[ng_ * ng_ + i];
      return;
    }
    {
      const auto& from_below = recv[static_cast<std::size_t>(lo_nbr)];
      COSMO_REQUIRE(from_below.size() == ng_ * ng_, "ghost fold size mismatch");
      auto bot = rho.plane(0);
      for (std::size_t i = 0; i < bot.size(); ++i) bot[i] += from_below[i];
    }
    {
      const auto& from_above = recv[static_cast<std::size_t>(hi_nbr)];
      COSMO_REQUIRE(from_above.size() == ng_ * ng_, "ghost fold size mismatch");
      auto top = rho.plane(static_cast<long>(nzl()) - 1);
      for (std::size_t i = 0; i < top.size(); ++i) top[i] += from_above[i];
    }
  }

  /// Fills the ghost planes of every field in `fields` with copies of the
  /// neighbors' boundary planes, all fields in one exchange.
  void exchange_ghost_planes(std::initializer_list<SlabField*> fields) const {
    const long top = static_cast<long>(nzl()) - 1;
    const long ghost_hi = static_cast<long>(nzl());
    if (comm_->size() == 1) {
      for (SlabField* f : fields) {
        std::ranges::copy(f->plane(top), f->plane(-1).begin());
        std::ranges::copy(f->plane(0), f->plane(ghost_hi).begin());
      }
      return;
    }
    const int P = comm_->size();
    const int rank = comm_->rank();
    const auto lo_nbr = static_cast<std::size_t>((rank + P - 1) % P);
    const auto hi_nbr = static_cast<std::size_t>((rank + 1) % P);
    const std::size_t plane = ng_ * ng_;
    const std::size_t planes = plane * fields.size();
    std::vector<std::vector<double>> send(static_cast<std::size_t>(P));
    // Each field's bottom plane goes down, its top plane up, in field
    // order. Append (not assign): with P == 2 both go to the same neighbor,
    // whose block is [every bottom plane, every top plane].
    for (SlabField* f : fields) {
      auto bot = f->plane(0);
      send[lo_nbr].insert(send[lo_nbr].end(), bot.begin(), bot.end());
    }
    for (SlabField* f : fields) {
      auto up = f->plane(top);
      send[hi_nbr].insert(send[hi_nbr].end(), up.begin(), up.end());
    }
    const auto recv = comm_->alltoallv(send);
    const auto& above = recv[hi_nbr];
    const auto& below = recv[lo_nbr];
    COSMO_REQUIRE(above.size() == (P == 2 ? 2 * planes : planes) &&
                      below.size() == above.size(),
                  "ghost exchange size mismatch");
    // The neighbor above sent its bottom planes, our upper ghosts; the one
    // below sent its top planes, our lower ghosts (with P == 2, the second
    // half of the one neighbor's block).
    const double* from_above = above.data();
    const double* from_below = below.data() + (P == 2 ? planes : 0);
    for (SlabField* f : fields) {
      std::copy_n(from_above, plane, f->plane(ghost_hi).begin());
      std::copy_n(from_below, plane, f->plane(-1).begin());
      from_above += plane;
      from_below += plane;
    }
  }

  comm::Comm* comm_;
  const Cosmology* cosmo_;
  mutable fft::DistributedFft fft_;
  SlabDecomposition decomp_;
  std::size_t ng_;
  double box_;
  dpp::Backend backend_ = dpp::Backend::Serial;
};

}  // namespace cosmo::sim
