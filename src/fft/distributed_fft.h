// Slab-decomposed distributed 3-D FFT over the SPMD communicator.
//
// Real space: each rank owns a contiguous slab of z-planes.
// k space:    each rank owns a contiguous slab of ky-rows, with kz
//             contiguous in memory ("transposed" output, as in FFTW MPI and
//             HACC's solver — avoiding the transpose back saves a full
//             all-to-all per solve).
//
// Layouts (n = global grid size, P = ranks, nzl = n/P, nyl = n/P):
//   real space slab:  index = (z_local*n + y)*n + x        (x fastest)
//   k space slab:     index = (ky_local*n + kx)*n + kz     (kz fastest)
//
// Execution: the per-pencil 1-D row transforms and the transpose pack/unpack
// copy loops dispatch on the dpp pool (set_backend). Each transpose is one
// Comm::exchange: every destination's block is packed into one reused
// scratch and sent, then every source's block is unpacked into the slab.
// Both backends produce output bit-identical to the local fft_3d: every
// unpack writes a source-addressed disjoint region, every row transform owns
// its row and runs the same passes in the same order, and block boundaries
// never depend on scheduling.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "fft/fft.h"
#include "obs/obs.h"
#include "util/error.h"

namespace cosmo::fft {

class DistributedFft {
 public:
  DistributedFft(comm::Comm& comm, std::size_t n)
      : comm_(&comm), n_(n), nslab_(n / static_cast<std::size_t>(comm.size())) {
    COSMO_REQUIRE(is_pow2(n), "grid size must be a power of two");
    COSMO_REQUIRE(n % static_cast<std::size_t>(comm.size()) == 0,
                  "grid size must divide evenly across ranks");
  }

  std::size_t n() const { return n_; }
  /// Planes per rank in both decompositions (z-slab and ky-slab).
  std::size_t slab_thickness() const { return nslab_; }
  /// First z-plane (real space) / ky-row (k space) owned by this rank.
  std::size_t slab_start() const {
    return static_cast<std::size_t>(comm_->rank()) * nslab_;
  }
  std::size_t local_size() const { return nslab_ * n_ * n_; }

  /// Execution backend for the per-pencil 1-D transforms and the transpose
  /// pack/unpack copy loops. Output is bit-identical across backends.
  void set_backend(dpp::Backend b) { backend_ = b; }
  dpp::Backend backend() const { return backend_; }

  /// Forward transform. `slab` holds the rank's real-space z-slab on entry
  /// and its transposed k-space ky-slab on return. Unnormalized.
  void forward(std::vector<Complex>& slab) {
    check_size(slab);
    {
      COSMO_TRACE_SPAN_CAT("fft.rows", "fft");
      // x and y transforms within each local z-plane: (zl, y) rows are
      // contiguous runs of n; (zl, x) pencils are strided by n.
      dpp::for_each_index(
          backend_, nslab_ * n_,
          [&](std::size_t t) {
            fft_1d(std::span<Complex>(slab.data() + t * n_, n_),
                   /*inverse=*/false);
          });
      dpp::for_each_chunk(
          backend_, nslab_ * n_,
          [&](std::size_t lo, std::size_t hi) {
            std::vector<Complex> scratch;
            for (std::size_t t = lo; t < hi; ++t) {
              Complex* plane = slab.data() + (t / n_) * n_ * n_;
              fft_1d_strided(plane + t % n_, n_, n_, /*inverse=*/false,
                             scratch);
            }
          });
    }
    transpose(slab, /*z_to_y=*/true);
    {
      COSMO_TRACE_SPAN_CAT("fft.rows", "fft");
      // z transform: contiguous runs of length n in the transposed layout.
      dpp::for_each_index(
          backend_, nslab_ * n_,
          [&](std::size_t row) {
            fft_1d(std::span<Complex>(slab.data() + row * n_, n_),
                   /*inverse=*/false);
          });
    }
  }

  /// Inverse transform (accepts the transposed k-space slab, returns the
  /// real-space z-slab) including the 1/n³ normalization.
  void inverse(std::vector<Complex>& slab) {
    check_size(slab);
    {
      COSMO_TRACE_SPAN_CAT("fft.rows", "fft");
      dpp::for_each_index(
          backend_, nslab_ * n_,
          [&](std::size_t row) {
            fft_1d(std::span<Complex>(slab.data() + row * n_, n_),
                   /*inverse=*/true);
          });
    }
    transpose(slab, /*z_to_y=*/false);
    {
      COSMO_TRACE_SPAN_CAT("fft.rows", "fft");
      dpp::for_each_chunk(
          backend_, nslab_ * n_,
          [&](std::size_t lo, std::size_t hi) {
            std::vector<Complex> scratch;
            for (std::size_t t = lo; t < hi; ++t) {
              Complex* plane = slab.data() + (t / n_) * n_ * n_;
              fft_1d_strided(plane + t % n_, n_, n_, /*inverse=*/true, scratch);
            }
          });
      dpp::for_each_index(
          backend_, nslab_ * n_,
          [&](std::size_t t) {
            fft_1d(std::span<Complex>(slab.data() + t * n_, n_),
                   /*inverse=*/true);
          });
    }
    const double scale = 1.0 / (static_cast<double>(n_) * static_cast<double>(n_) *
                                static_cast<double>(n_));
    dpp::for_each_index(
        backend_, nslab_ * n_,
        [&](std::size_t row) {
          Complex* r = slab.data() + row * n_;
          for (std::size_t i = 0; i < n_; ++i) r[i] *= scale;
        });
  }

 private:
  void check_size(const std::vector<Complex>& slab) const {
    COSMO_REQUIRE(slab.size() == local_size(), "slab buffer has wrong size");
  }

  // ---- pack/unpack kernels -----------------------------------------------
  // Both transposes move pencil blocks of nslab²·n elements laid out in
  // (y_local, x, z_local) order with z_local fastest, so one side of every
  // copy is a contiguous run of nslab. The loops dispatch one item per
  // (y_local, x) pencil on the dpp pool; items touch disjoint pencils, so
  // any schedule produces the same bytes.

  /// z→y pack: gather the columns destined for rank d (y in d's ky-slab).
  void pack_z_to_y(const std::vector<Complex>& slab, int d,
                   Complex* buf) const {
    const std::size_t y0 = static_cast<std::size_t>(d) * nslab_;
    dpp::for_each_index(
        backend_, nslab_ * n_,
        [&](std::size_t t) {
          const std::size_t yl = t / n_;
          const std::size_t x = t % n_;
          Complex* dst = buf + t * nslab_;
          for (std::size_t zl = 0; zl < nslab_; ++zl)
            dst[zl] = slab[(zl * n_ + (y0 + yl)) * n_ + x];
        });
  }

  /// z→y unpack of source s's block into the k-space layout: s owned the
  /// z-planes [s·nslab, (s+1)·nslab), which are contiguous kz runs here.
  void unpack_z_to_y(const Complex* buf, int s, Complex* out) const {
    const std::size_t z0 = static_cast<std::size_t>(s) * nslab_;
    dpp::for_each_index(
        backend_, nslab_ * n_,
        [&](std::size_t t) {
          const std::size_t yl = t / n_;
          const std::size_t x = t % n_;
          const Complex* src = buf + t * nslab_;
          Complex* dst = out + (yl * n_ + x) * n_ + z0;
          for (std::size_t zl = 0; zl < nslab_; ++zl) dst[zl] = src[zl];
        });
  }

  /// y→z pack: mirror of unpack_z_to_y (contiguous kz runs out of the slab).
  void pack_y_to_z(const std::vector<Complex>& slab, int d,
                   Complex* buf) const {
    const std::size_t z0 = static_cast<std::size_t>(d) * nslab_;
    dpp::for_each_index(
        backend_, nslab_ * n_,
        [&](std::size_t t) {
          const std::size_t yl = t / n_;
          const std::size_t x = t % n_;
          const Complex* src = slab.data() + (yl * n_ + x) * n_ + z0;
          Complex* dst = buf + t * nslab_;
          for (std::size_t zl = 0; zl < nslab_; ++zl) dst[zl] = src[zl];
        });
  }

  /// y→z unpack: mirror of pack_z_to_y (scatter back into z-plane layout).
  void unpack_y_to_z(const Complex* buf, int s, Complex* out) const {
    const std::size_t y0 = static_cast<std::size_t>(s) * nslab_;
    dpp::for_each_index(
        backend_, nslab_ * n_,
        [&](std::size_t t) {
          const std::size_t yl = t / n_;
          const std::size_t x = t % n_;
          const Complex* src = buf + t * nslab_;
          for (std::size_t zl = 0; zl < nslab_; ++zl)
            out[(zl * n_ + (y0 + yl)) * n_ + x] = src[zl];
        });
  }

  // ---- transposes --------------------------------------------------------

  /// Redistributes z-slabs (x fastest) to ky-slabs (kz fastest) when
  /// `z_to_y` — element (z, y, x) moves to the rank owning y, landing at
  /// (y_local, x, z) — and back otherwise. Every peer owns an equal slab, so
  /// each rank exchanges nslab²·n elements with each peer. Every block is
  /// packed into one scratch before the first unpack runs, so the unpacks
  /// write straight into `slab`, each into a source-addressed disjoint
  /// region.
  void transpose(std::vector<Complex>& slab, bool z_to_y) {
    const std::size_t block = nslab_ * n_ * nslab_;
    std::vector<Complex> scratch(block);
    COSMO_TRACE_SPAN_CAT("fft.exchange", "fft");
    comm_->exchange<Complex>(
        [&](int d) {
          COSMO_TRACE_SPAN_CAT("fft.pack", "fft");
          if (z_to_y)
            pack_z_to_y(slab, d, scratch.data());
          else
            pack_y_to_z(slab, d, scratch.data());
          return std::span<const Complex>(scratch);
        },
        [&](int s, std::span<const Complex> buf) {
          COSMO_TRACE_SPAN_CAT("fft.unpack", "fft");
          COSMO_REQUIRE(buf.size() == block, "transpose block size mismatch");
          if (z_to_y)
            unpack_z_to_y(buf.data(), s, slab.data());
          else
            unpack_y_to_z(buf.data(), s, slab.data());
        });
  }

  comm::Comm* comm_;
  std::size_t n_;
  std::size_t nslab_;
  dpp::Backend backend_ = dpp::Backend::Serial;
};

}  // namespace cosmo::fft
