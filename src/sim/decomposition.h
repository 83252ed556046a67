// Slab domain decomposition with overload (ghost) regions.
//
// HACC decomposes the periodic box across ranks and defines "overload
// regions" at rank boundaries: each neighbor receives a copy of the
// particles within the overload width, sized so that every FOF halo is
// found whole by at least one rank (§3.3.1). We use z-slabs, which also
// match the distributed FFT's real-space layout, so the PM solver and the
// analysis share one decomposition.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/comm.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::sim {

/// Wire format for particle exchange (trivially copyable).
struct PackedParticle {
  float x, y, z, vx, vy, vz, phi;
  std::int64_t tag;
};
static_assert(std::is_trivially_copyable_v<PackedParticle>);

inline PackedParticle pack_particle(const ParticleSet& p, std::size_t i) {
  return PackedParticle{p.x[i],  p.y[i],  p.z[i],   p.vx[i],
                        p.vy[i], p.vz[i], p.phi[i], p.tag[i]};
}

inline void unpack_particle(const PackedParticle& w, ParticleSet& p) {
  p.push_back(w.x, w.y, w.z, w.vx, w.vy, w.vz, w.tag, w.phi);
}

/// Writes w over particle k of p.
inline void unpack_particle(const PackedParticle& w, ParticleSet& p,
                            std::size_t k) {
  p.x[k] = w.x;
  p.y[k] = w.y;
  p.z[k] = w.z;
  p.vx[k] = w.vx;
  p.vy[k] = w.vy;
  p.vz[k] = w.vz;
  p.phi[k] = w.phi;
  p.tag[k] = w.tag;
}

/// Periodic z-slab decomposition of an L^3 box across the communicator.
class SlabDecomposition {
 public:
  SlabDecomposition(int nranks, double box) : nranks_(nranks), box_(box) {
    COSMO_REQUIRE(nranks > 0, "need at least one rank");
    COSMO_REQUIRE(box > 0.0, "box must be positive");
  }

  double box() const { return box_; }
  int nranks() const { return nranks_; }
  double slab_thickness() const { return box_ / nranks_; }
  double z_lo(int rank) const { return slab_thickness() * rank; }
  double z_hi(int rank) const { return slab_thickness() * (rank + 1); }

  /// Rank owning position z (z is wrapped into [0, box) first, with one
  /// fmod as ParticleSet::wrap_positions wraps). Non-finite z throws.
  int owner_of(double zpos) const {
    COSMO_REQUIRE(std::isfinite(zpos), "owner_of needs a finite z");
    double zz = zpos;
    if (!(zz >= 0.0 && zz < box_)) {
      zz = std::fmod(zz, box_);
      if (zz < 0.0) zz += box_;
      if (zz >= box_) zz -= box_;
    }
    int r = static_cast<int>(zz / slab_thickness());
    if (r >= nranks_) r = nranks_ - 1;
    return r;
  }

  /// Moves every particle to its owner rank (alltoallv). Positions are
  /// wrapped into the box before routing. Only particles that leave this
  /// rank travel. The result holds source ranks in ascending order, each
  /// source's particles in its local order, with this rank's own
  /// particles in place as its block.
  ParticleSet redistribute(comm::Comm& comm, ParticleSet local) const {
    COSMO_REQUIRE(comm.size() == nranks_, "communicator/decomposition mismatch");
    local.wrap_positions(static_cast<float>(box_));
    const auto nr = static_cast<std::size_t>(nranks_);
    const auto home = static_cast<std::size_t>(comm.rank());
    const std::size_t n = local.size();
    std::vector<std::size_t> owner(n);
    std::vector<std::size_t> count(nr, 0);
    for (std::size_t i = 0; i < n; ++i) {
      owner[i] = static_cast<std::size_t>(owner_of(local.z[i]));
      ++count[owner[i]];
    }
    std::vector<std::vector<PackedParticle>> send(nr);
    for (std::size_t d = 0; d < nr; ++d)
      if (d != home) send[d].reserve(count[d]);
    if (count[home] != n)
      for (std::size_t i = 0; i < n; ++i)
        if (owner[i] != home) send[owner[i]].push_back(pack_particle(local, i));
    const auto recv = comm.alltoallv(send);
    std::size_t total = count[home];
    for (std::size_t s = 0; s < nr; ++s)
      if (s != home) total += recv[s].size();
    if (count[home] == n && total == n) return local;  // nothing moved
    ParticleSet owned(total);
    std::size_t k = 0;
    for (std::size_t s = 0; s < nr; ++s) {
      if (s == home) {
        for (std::size_t i = 0; i < n; ++i)
          if (owner[i] == home) owned.set(k++, local, i);
      } else {
        for (const auto& w : recv[s]) unpack_particle(w, owned, k++);
      }
    }
    return owned;
  }

  /// Result of an overload exchange: the rank's owned particles followed by
  /// ghost copies received from neighbors. `owned_count` marks the split.
  struct Overloaded {
    ParticleSet particles;
    std::size_t owned_count = 0;
  };

  /// Exchanges ghost copies of particles within `width` of the slab faces
  /// with both periodic neighbors. Ghost z-positions are kept unwrapped
  /// (they may lie slightly outside [0, box)) so distance computations near
  /// the boundary need no minimum-image logic inside a slab's neighborhood.
  /// Ghosts follow the owned particles in source-rank order, each source's
  /// in its particle order, appended straight from the messages. At P == 1
  /// the rank is both of its own neighbors: its self block holds the ghosts
  /// across the periodic seam.
  Overloaded exchange_overload(comm::Comm& comm, const ParticleSet& owned,
                               double width) const {
    COSMO_REQUIRE(comm.size() == nranks_, "communicator/decomposition mismatch");
    COSMO_REQUIRE(width >= 0.0 && width < slab_thickness(),
                  "overload width must be smaller than the slab thickness");
    Overloaded out;
    out.particles = owned;
    out.owned_count = owned.size();

    const int rank = comm.rank();
    const int lo_nbr = (rank + nranks_ - 1) % nranks_;
    const int hi_nbr = (rank + 1) % nranks_;
    const double zlo = z_lo(rank), zhi = z_hi(rank);

    std::vector<std::vector<PackedParticle>> send(
        static_cast<std::size_t>(nranks_));
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const double zz = owned.z[i];
      if (zz < zlo + width) {
        PackedParticle w = pack_particle(owned, i);
        // Crossing the periodic seam: shift so the ghost is contiguous with
        // the receiver's slab.
        if (rank == 0) w.z += static_cast<float>(box_);
        send[static_cast<std::size_t>(lo_nbr)].push_back(w);
      }
      if (zz >= zhi - width) {
        PackedParticle w = pack_particle(owned, i);
        if (rank == nranks_ - 1) w.z -= static_cast<float>(box_);
        send[static_cast<std::size_t>(hi_nbr)].push_back(w);
      }
    }
    comm.exchange<PackedParticle>(
        [&](int dest) {
          return std::span<const PackedParticle>(
              send[static_cast<std::size_t>(dest)]);
        },
        [&](int, std::span<const PackedParticle> block) {
          for (const auto& w : block) unpack_particle(w, out.particles);
        });
    return out;
  }

 private:
  int nranks_;
  double box_;
};

}  // namespace cosmo::sim
