// Complex FFTs: 1-D radix-2, local 3-D, and helpers shared with the
// distributed transform.
//
// The PM gravity solver and the in-situ power-spectrum analysis both need
// 3-D FFTs; HACC uses its own pencil-decomposed FFT for the same reason we
// build our own here — the transform has to live inside the simulation's
// domain decomposition.
#pragma once

#include <array>
#include <bit>
#include <complex>
#include <cstddef>
#include <memory>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"

namespace cosmo::fft {

using Complex = std::complex<double>;

/// True if n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace detail {

/// Everything fft_1d needs for one (n ≥ 2, direction) that does not depend
/// on the data: the bit-reversal swaps and every stage's twiddles. Stage
/// `half` (butterflies half apart, half = 1, 2, 4, …, n/2) keeps its half
/// twiddles at [half − 1, 2·half − 1); they come from the same
/// w *= wlen recurrence a per-row loop would run, so each has the same bits.
struct FftPlan {
  std::vector<std::pair<std::size_t, std::size_t>> swaps;  // (i, j), i < j
  std::vector<Complex> twiddles;                           // n − 1 of them

  FftPlan(std::size_t n, bool inverse) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) swaps.emplace_back(i, j);
    }
    twiddles.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle =
          (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
      const Complex wlen(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        twiddles.push_back(w);
        w *= wlen;
      }
    }
  }
};

/// This thread's plan for (n, inverse), built on first use. Each plan sits
/// behind its own unique_ptr in a fixed-size table, so the reference stays
/// valid for the thread's lifetime whatever other lengths it plans later.
inline const FftPlan& fft_plan(std::size_t n, bool inverse) {
  thread_local std::array<std::unique_ptr<FftPlan>, 2 * 64> plans;
  auto& slot = plans[2 * static_cast<std::size_t>(std::countr_zero(n)) +
                     (inverse ? 1 : 0)];
  if (!slot) slot = std::make_unique<FftPlan>(n, inverse);
  return *slot;
}

}  // namespace detail

/// In-place iterative radix-2 Cooley–Tukey on a contiguous buffer.
/// `inverse` applies the conjugate transform WITHOUT the 1/n scaling;
/// callers scale once at the end of a full round trip.
inline void fft_1d(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  COSMO_REQUIRE(is_pow2(n), "fft_1d length must be a power of two");
  if (n <= 1) return;
  const detail::FftPlan& plan = detail::fft_plan(n, inverse);
  Complex* d = data.data();
  for (const auto& [i, j] : plan.swaps) std::swap(d[i], d[j]);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const Complex* w = plan.twiddles.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = d[i + k];
        const Complex t = d[i + k + half];
        // (ac − bd, ad + bc): std::complex's product for finite operands
        // that do not overflow, without its NaN recovery branch.
        const Complex v(t.real() * w[k].real() - t.imag() * w[k].imag(),
                        t.real() * w[k].imag() + t.imag() * w[k].real());
        d[i + k] = u + v;
        d[i + k + half] = u - v;
      }
    }
  }
}

/// Strided 1-D transform: elements data[offset + i*stride], i in [0, n).
/// Copies through a scratch buffer; the 3-D transforms reuse one scratch.
inline void fft_1d_strided(Complex* data, std::size_t n, std::size_t stride,
                           bool inverse, std::vector<Complex>& scratch) {
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i * stride];
  fft_1d(scratch, inverse);
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
}

/// Dense n³ (or nx×ny×nz) complex grid with row-major layout:
/// index = (z*ny + y)*nx + x  — x varies fastest.
class Grid3 {
 public:
  Grid3() = default;
  Grid3(std::size_t nx, std::size_t ny, std::size_t nz)
      : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz) {}

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t size() const { return data_.size(); }

  Complex& at(std::size_t x, std::size_t y, std::size_t z) {
    return data_[(z * ny_ + y) * nx_ + x];
  }
  const Complex& at(std::size_t x, std::size_t y, std::size_t z) const {
    return data_[(z * ny_ + y) * nx_ + x];
  }

  std::span<Complex> flat() { return data_; }
  std::span<const Complex> flat() const { return data_; }
  Complex* data() { return data_.data(); }

 private:
  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<Complex> data_;
};

/// In-place 3-D transform of a local (single-rank) grid. No normalization;
/// a forward+inverse round trip gains a factor of nx*ny*nz.
inline void fft_3d(Grid3& g, bool inverse) {
  COSMO_REQUIRE(is_pow2(g.nx()) && is_pow2(g.ny()) && is_pow2(g.nz()),
                "fft_3d dims must be powers of two");
  std::vector<Complex> scratch;
  // x-direction: contiguous rows.
  for (std::size_t z = 0; z < g.nz(); ++z)
    for (std::size_t y = 0; y < g.ny(); ++y)
      fft_1d(std::span<Complex>(&g.at(0, y, z), g.nx()), inverse);
  // y-direction: stride nx.
  for (std::size_t z = 0; z < g.nz(); ++z)
    for (std::size_t x = 0; x < g.nx(); ++x)
      fft_1d_strided(&g.at(x, 0, z), g.ny(), g.nx(), inverse, scratch);
  // z-direction: stride nx*ny.
  for (std::size_t y = 0; y < g.ny(); ++y)
    for (std::size_t x = 0; x < g.nx(); ++x)
      fft_1d_strided(&g.at(x, y, 0), g.nz(), g.nx() * g.ny(), inverse, scratch);
}

/// Signed frequency index for mode i of an n-point transform: 0..n/2,
/// then negative. Used to build physical wavevectors.
inline long freq_index(std::size_t i, std::size_t n) {
  return i <= n / 2 ? static_cast<long>(i)
                    : static_cast<long>(i) - static_cast<long>(n);
}

}  // namespace cosmo::fft
