// Halo shapes — the third Level 3 property the paper names ("properties of
// halos, including halo centers, shapes, and subhalo populations", §3).
//
// Shape is the standard reduced-inertia-tensor measure: the eigenvalues of
// I_jk = Σ x_j x_k (about the halo center, minimum-image) give the squared
// principal axes a ≥ b ≥ c; the axis ratios b/a and c/a quantify
// triaxiality (1,1 = sphere; →0 = filamentary). Eigenvalues come from a
// cyclic Jacobi rotation — exact for a symmetric 3×3 and dependency-free.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dpp/primitives.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::stats {

/// Symmetric 3×3 eigen-solver (cyclic Jacobi). Returns eigenvalues in
/// descending order. Exposed for testing.
inline std::array<double, 3> symmetric_eigenvalues_3x3(double a00, double a01,
                                                       double a02, double a11,
                                                       double a12, double a22) {
  double m[3][3] = {{a00, a01, a02}, {a01, a11, a12}, {a02, a12, a22}};
  for (int sweep = 0; sweep < 50; ++sweep) {
    // Largest off-diagonal element.
    double off = std::abs(m[0][1]);
    int p = 0, q = 1;
    if (std::abs(m[0][2]) > off) {
      off = std::abs(m[0][2]);
      p = 0;
      q = 2;
    }
    if (std::abs(m[1][2]) > off) {
      off = std::abs(m[1][2]);
      p = 1;
      q = 2;
    }
    if (off < 1e-14 * (std::abs(m[0][0]) + std::abs(m[1][1]) + std::abs(m[2][2]) + 1e-300))
      break;
    // Jacobi rotation annihilating m[p][q].
    const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
    const double t = (theta >= 0 ? 1.0 : -1.0) /
                     (std::abs(theta) + std::sqrt(theta * theta + 1.0));
    const double c = 1.0 / std::sqrt(t * t + 1.0);
    const double s = t * c;
    const double mpp = m[p][p], mqq = m[q][q], mpq = m[p][q];
    m[p][p] = c * c * mpp - 2.0 * s * c * mpq + s * s * mqq;
    m[q][q] = s * s * mpp + 2.0 * s * c * mpq + c * c * mqq;
    m[p][q] = m[q][p] = 0.0;
    const int r = 3 - p - q;
    const double mrp = m[r][p], mrq = m[r][q];
    m[r][p] = m[p][r] = c * mrp - s * mrq;
    m[r][q] = m[q][r] = s * mrp + c * mrq;
  }
  std::array<double, 3> ev{m[0][0], m[1][1], m[2][2]};
  std::sort(ev.begin(), ev.end(), std::greater<>());
  return ev;
}

struct HaloShape {
  double a = 0, b = 0, c = 0;  ///< principal axis lengths, a ≥ b ≥ c
  double b_over_a = 0;
  double c_over_a = 0;
  /// Triaxiality T = (a²−b²)/(a²−c²); 0 = oblate, 1 = prolate.
  double triaxiality = 0;
};

/// Computes the shape of a halo's members about (cx, cy, cz). The inertia
/// tensor accumulates per block of the same deterministic decomposition on
/// both backends (Serial walks the identical blocks sequentially), with
/// partials folded in ascending block order — so the tensor, and therefore
/// the axis ratios, are bit-identical Serial ≡ ThreadPool.
inline HaloShape halo_shape(const sim::ParticleSet& p,
                            std::span<const std::uint32_t> members, double cx,
                            double cy, double cz, double box = 0.0,
                            dpp::Backend backend = dpp::Backend::Serial) {
  COSMO_REQUIRE(members.size() >= 4, "shape needs at least four particles");
  auto fold = [&](double d) {
    if (box <= 0.0) return d;
    if (d > 0.5 * box) d -= box;
    if (d < -0.5 * box) d += box;
    return d;
  };
  struct Tensor {
    double i00 = 0, i01 = 0, i02 = 0, i11 = 0, i12 = 0, i22 = 0;
  };
  const dpp::detail::BlockDecomposition blocks(members.size(), /*grain=*/0);
  std::vector<Tensor> partial(blocks.num_blocks);
  dpp::for_each_index(
      backend, blocks.num_blocks,
      [&](std::size_t blk) {
        Tensor t;
        const std::size_t hi = blocks.hi(blk, members.size());
        for (std::size_t k = blocks.lo(blk); k < hi; ++k) {
          const std::uint32_t i = members[k];
          const double dx = fold(p.x[i] - cx);
          const double dy = fold(p.y[i] - cy);
          const double dz = fold(p.z[i] - cz);
          t.i00 += dx * dx;
          t.i01 += dx * dy;
          t.i02 += dx * dz;
          t.i11 += dy * dy;
          t.i12 += dy * dz;
          t.i22 += dz * dz;
        }
        partial[blk] = t;
      },
      /*grain=*/1);
  Tensor sum;
  for (const auto& t : partial) {
    sum.i00 += t.i00;
    sum.i01 += t.i01;
    sum.i02 += t.i02;
    sum.i11 += t.i11;
    sum.i12 += t.i12;
    sum.i22 += t.i22;
  }
  const double n = static_cast<double>(members.size());
  auto ev = symmetric_eigenvalues_3x3(sum.i00 / n, sum.i01 / n, sum.i02 / n,
                                      sum.i11 / n, sum.i12 / n, sum.i22 / n);
  HaloShape s;
  s.a = std::sqrt(std::max(ev[0], 0.0));
  s.b = std::sqrt(std::max(ev[1], 0.0));
  s.c = std::sqrt(std::max(ev[2], 0.0));
  if (s.a > 0.0) {
    s.b_over_a = s.b / s.a;
    s.c_over_a = s.c / s.a;
    const double denom = s.a * s.a - s.c * s.c;
    s.triaxiality = denom > 1e-30 ? (s.a * s.a - s.b * s.b) / denom : 0.0;
  }
  return s;
}

}  // namespace cosmo::stats
