// Particle container — the Level 1 data structure.
//
// Structure-of-arrays layout matching HACC's: per-particle payload is
// 36 bytes (x, y, z, vx, vy, vz, phi as float; a 64-bit tag), the figure
// Table 1 uses to size Level 1 data. SoA keeps the analysis kernels
// (potential sums, CIC deposits) on contiguous, predictable memory.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace cosmo::sim {

/// SoA particle set. All arrays always have equal length.
class ParticleSet {
 public:
  /// HACC's per-particle storage cost (Table 1): 7 floats + int64 tag.
  static constexpr std::size_t kBytesPerParticle = 36;

  ParticleSet() = default;
  explicit ParticleSet(std::size_t n) { resize(n); }

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }
  std::uint64_t bytes() const { return size() * kBytesPerParticle; }

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    z.resize(n);
    vx.resize(n);
    vy.resize(n);
    vz.resize(n);
    phi.resize(n);
    tag.resize(n);
  }

  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    z.reserve(n);
    vx.reserve(n);
    vy.reserve(n);
    vz.reserve(n);
    phi.reserve(n);
    tag.reserve(n);
  }

  void clear() { resize(0); }

  void push_back(float px, float py, float pz, float pvx, float pvy, float pvz,
                 std::int64_t ptag, float pphi = 0.0f) {
    x.push_back(px);
    y.push_back(py);
    z.push_back(pz);
    vx.push_back(pvx);
    vy.push_back(pvy);
    vz.push_back(pvz);
    phi.push_back(pphi);
    tag.push_back(ptag);
  }

  /// Appends all of `other`.
  void append(const ParticleSet& other) {
    x.insert(x.end(), other.x.begin(), other.x.end());
    y.insert(y.end(), other.y.begin(), other.y.end());
    z.insert(z.end(), other.z.begin(), other.z.end());
    vx.insert(vx.end(), other.vx.begin(), other.vx.end());
    vy.insert(vy.end(), other.vy.begin(), other.vy.end());
    vz.insert(vz.end(), other.vz.begin(), other.vz.end());
    phi.insert(phi.end(), other.phi.begin(), other.phi.end());
    tag.insert(tag.end(), other.tag.begin(), other.tag.end());
  }

  /// Overwrites particle k with particle j of `other`.
  void set(std::size_t k, const ParticleSet& other, std::size_t j) {
    x[k] = other.x[j];
    y[k] = other.y[j];
    z[k] = other.z[j];
    vx[k] = other.vx[j];
    vy[k] = other.vy[j];
    vz[k] = other.vz[j];
    phi[k] = other.phi[j];
    tag[k] = other.tag[j];
  }

  /// Copies particle j of `other` onto the end of this set.
  void push_from(const ParticleSet& other, std::size_t j) {
    push_back(other.x[j], other.y[j], other.z[j], other.vx[j], other.vy[j],
              other.vz[j], other.tag[j], other.phi[j]);
  }

  /// New set holding the given particle indices, in order.
  template <typename IndexRange>
  ParticleSet select(const IndexRange& indices) const {
    ParticleSet out;
    out.reserve(indices.size());
    for (const auto i : indices) out.push_from(*this, static_cast<std::size_t>(i));
    return out;
  }

  /// Wraps all positions into [0, box) (periodic boundary conditions).
  /// Non-finite coordinates fail fast: a NaN would sail through any
  /// comparison-based wrap and corrupt slab routing in redistribute()
  /// much later, and −inf made the old while-loop wrap spin forever
  /// (−inf + box == −inf).
  void wrap_positions(float box) {
    COSMO_REQUIRE(box > 0.0f, "box size must be positive");
    auto wrap = [box](float& v) {
      // In [0, box) fmod returns its input unchanged (−0 included), so
      // only coordinates outside the box pay for it.
      if (v >= 0.0f && v < box) return;
      v = std::fmod(v, box);
      if (v < 0.0f) v += box;
      // fmod(-ε, box) + box can round up to exactly box; fold it to 0.
      if (v >= box) v -= box;
    };
    for (std::size_t i = 0; i < size(); ++i) {
      COSMO_REQUIRE(
          std::isfinite(x[i]) && std::isfinite(y[i]) && std::isfinite(z[i]),
          "non-finite particle position — the integrator diverged");
      wrap(x[i]);
      wrap(y[i]);
      wrap(z[i]);
    }
  }

  std::vector<float> x, y, z;
  std::vector<float> vx, vy, vz;
  std::vector<float> phi;  ///< potential (filled by center finders)
  std::vector<std::int64_t> tag;
};

/// Minimum-image distance-squared helper for periodic boxes.
inline double periodic_dist2(double dx, double dy, double dz, double box) {
  auto fold = [box](double d) {
    if (d > 0.5 * box) d -= box;
    if (d < -0.5 * box) d += box;
    return d;
  };
  dx = fold(dx);
  dy = fold(dy);
  dz = fold(dz);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace cosmo::sim
