// Tests for the FFT stack: 1-D analytic transforms, 3-D round trips,
// Parseval's theorem, and bit-exact distributed-vs-local equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "pool_load.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using fft::Complex;

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<Complex> v(16, Complex(0, 0));
  v[0] = Complex(1, 0);
  fft::fft_1d(v, false);
  for (const auto& c : v) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ConstantTransformsToDelta) {
  std::vector<Complex> v(32, Complex(2.0, 0));
  fft::fft_1d(v, false);
  EXPECT_NEAR(v[0].real(), 64.0, 1e-10);
  for (std::size_t i = 1; i < v.size(); ++i)
    EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-10);
}

TEST(Fft1d, SingleModeLandsInSingleBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(k * i) /
                         static_cast<double>(n);
    v[i] = Complex(std::cos(phase), std::sin(phase));
  }
  fft::fft_1d(v, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == k)
      EXPECT_NEAR(v[i].real(), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST(Fft1d, RoundTripRecoversInput) {
  Rng rng(3);
  std::vector<Complex> v(256), orig;
  for (auto& c : v) c = Complex(rng.normal(), rng.normal());
  orig = v;
  fft::fft_1d(v, false);
  fft::fft_1d(v, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real() / 256.0, orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag() / 256.0, orig[i].imag(), 1e-10);
  }
}

TEST(Fft1d, ParsevalHolds) {
  Rng rng(4);
  const std::size_t n = 512;
  std::vector<Complex> v(n);
  double time_energy = 0.0;
  for (auto& c : v) {
    c = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(c);
  }
  fft::fft_1d(v, false);
  double freq_energy = 0.0;
  for (const auto& c : v) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

TEST(Fft1d, RejectsNonPowerOfTwo) {
  std::vector<Complex> v(12);
  EXPECT_THROW(fft::fft_1d(v, false), Error);
}

TEST(Fft1d, LengthOneIsIdentity) {
  std::vector<Complex> v{Complex(3.5, -1.25)};
  fft::fft_1d(v, false);
  EXPECT_DOUBLE_EQ(v[0].real(), 3.5);
  EXPECT_DOUBLE_EQ(v[0].imag(), -1.25);
}

// fft_1d as it stood before it ran on per-length plans, kept verbatim as
// the oracle: per-row bit reversal, each stage's twiddles by the
// w *= wlen recurrence, and std::complex's product in the butterfly.
void fft_1d_per_row_recurrence(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  COSMO_REQUIRE(fft::is_pow2(n), "fft_1d length must be a power of two");
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Every length from 1 to 1024, both directions, on random rows and on the
// rows the previous transforms produced: fft_1d must return the oracle's
// bits (signed zeros included), not merely its values to a tolerance.
TEST(Fft1d, MatchesPerRowRecurrenceBitForBit) {
  Rng rng(2015);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    for (int row = 0; row < 3; ++row) {
      std::vector<Complex> got(n);
      for (auto& c : got) c = Complex(rng.normal(), rng.normal());
      std::vector<Complex> want = got;
      for (int pass = 0; pass < 4; ++pass) {
        const bool inverse = (pass + row) % 2 == 1;
        fft::fft_1d(got, inverse);
        fft_1d_per_row_recurrence(want, inverse);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(Complex)), 0)
            << "n " << n << " row " << row << " pass " << pass;
      }
    }
  }
}

TEST(FreqIndex, SignedFrequencies) {
  EXPECT_EQ(fft::freq_index(0, 8), 0);
  EXPECT_EQ(fft::freq_index(3, 8), 3);
  EXPECT_EQ(fft::freq_index(4, 8), 4);   // Nyquist stays positive
  EXPECT_EQ(fft::freq_index(5, 8), -3);
  EXPECT_EQ(fft::freq_index(7, 8), -1);
}

TEST(Fft3d, RoundTripRecoversInput) {
  Rng rng(5);
  fft::Grid3 g(8, 8, 8);
  std::vector<Complex> orig(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.flat()[i] = Complex(rng.normal(), rng.normal());
    orig[i] = g.flat()[i];
  }
  fft::fft_3d(g, false);
  fft::fft_3d(g, true);
  const double scale = 1.0 / 512.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g.flat()[i].real() * scale, orig[i].real(), 1e-10);
    EXPECT_NEAR(g.flat()[i].imag() * scale, orig[i].imag(), 1e-10);
  }
}

TEST(Fft3d, PlaneWaveSingleMode) {
  const std::size_t n = 8;
  fft::Grid3 g(n, n, n);
  const std::size_t kx = 2, ky = 1, kz = 3;
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double phase = 2.0 * std::numbers::pi *
                             static_cast<double>(kx * x + ky * y + kz * z) /
                             static_cast<double>(n);
        g.at(x, y, z) = Complex(std::cos(phase), std::sin(phase));
      }
  fft::fft_3d(g, false);
  const double total = static_cast<double>(n * n * n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double expect = (x == kx && y == ky && z == kz) ? total : 0.0;
        ASSERT_NEAR(std::abs(g.at(x, y, z)), expect, 1e-8)
            << x << "," << y << "," << z;
      }
}

class DistFft : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, DistFft, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

// Local reference for DistributedFft::inverse: the same 1-D passes in the
// same order — z, then y, then x — followed by the same 1/n³ scale, so the
// distributed inverse must reproduce it bit for bit. (fft_3d runs x, y, z,
// which rounds differently.)
void inverse_reference(fft::Grid3& g) {
  const std::size_t n = g.nx();
  std::vector<Complex> scratch;
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      fft::fft_1d_strided(&g.at(x, y, 0), n, n * n, /*inverse=*/true, scratch);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t x = 0; x < n; ++x)
      fft::fft_1d_strided(&g.at(x, 0, z), n, n, /*inverse=*/true, scratch);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      fft::fft_1d(std::span<Complex>(&g.at(0, y, z), n), /*inverse=*/true);
  const double scale = 1.0 / (static_cast<double>(n) * static_cast<double>(n) *
                              static_cast<double>(n));
  for (auto& v : g.flat()) v *= scale;
}

struct DistFftRun {
  dpp::Backend backend = dpp::Backend::Serial;
  bool stagger = false;  // ranks enter the transposes far apart
};

// Transforms one random n³ field forward and back on P ranks and requires
// both results to equal the local references bit for bit: forward against
// fft::fft_3d, inverse against inverse_reference of that spectrum.
void expect_matches_local(int P, std::size_t n, const DistFftRun& run) {
  Rng rng(17);
  fft::Grid3 field(n, n, n);
  for (auto& v : field.flat()) v = Complex(rng.normal(), rng.normal());
  fft::Grid3 kspace = field;
  fft::fft_3d(kspace, /*inverse=*/false);
  fft::Grid3 back = kspace;
  inverse_reference(back);

  comm::run_spmd(P, [&](comm::Comm& c) {
    if (run.stagger)  // adversarial: block arrival order reverses rank order
      std::this_thread::sleep_for(
          std::chrono::milliseconds(3 * (P - 1 - c.rank())));
    fft::DistributedFft dfft(c, n);
    dfft.set_backend(run.backend);
    const std::size_t nsl = dfft.slab_thickness();
    const std::size_t s0 = dfft.slab_start();
    // Real space: z-slab, x fastest.
    std::vector<Complex> slab(dfft.local_size());
    for (std::size_t zl = 0; zl < nsl; ++zl)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          slab[(zl * n + y) * n + x] = field.at(x, y, s0 + zl);
    dfft.forward(slab);
    // k space: ky-slab, kz fastest. Exact double equality throughout.
    for (std::size_t kyl = 0; kyl < nsl; ++kyl)
      for (std::size_t kx = 0; kx < n; ++kx)
        for (std::size_t kz = 0; kz < n; ++kz)
          ASSERT_EQ(slab[(kyl * n + kx) * n + kz], kspace.at(kx, s0 + kyl, kz))
              << "forward rank " << c.rank() << " k " << kx << ","
              << s0 + kyl << "," << kz;
    dfft.inverse(slab);  // its input now equals the local spectrum exactly
    for (std::size_t zl = 0; zl < nsl; ++zl)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          ASSERT_EQ(slab[(zl * n + y) * n + x], back.at(x, y, s0 + zl))
              << "inverse rank " << c.rank() << " at " << x << "," << y
              << "," << s0 + zl;
  });
}

// At n = 8 on a pool of 2 to 8 workers, the auto grain gives every row and
// every pack/unpack pencil its own scheduler chunk (⌈n·nslab / (32 ·
// workers)⌉ = 1), so the pooled runs execute one-row chunks out of order.
TEST_P(DistFft, MatchesLocalTransform) {
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool})
    expect_matches_local(GetParam(), 8, {backend});
}

// The name dates from the batched and the pipelined transposes, both since
// deleted; the one transpose is pinned to the local transform, as in
// MatchesLocalTransform, at n = 16, with blocks four times the size.
TEST_P(DistFft, PipelinedMatchesBatchedBitExact) {
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool})
    expect_matches_local(GetParam(), 16, {backend});
}

TEST_P(DistFft, RoundTripRecoversSlab) {
  const int P = GetParam();
  const std::size_t n = 16;
  comm::run_spmd(P, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, n);
    Rng rng(100 + static_cast<std::uint64_t>(c.rank()));
    std::vector<Complex> slab(dfft.local_size()), orig;
    for (auto& v : slab) v = Complex(rng.normal(), rng.normal());
    orig = slab;
    dfft.forward(slab);
    dfft.inverse(slab);
    for (std::size_t i = 0; i < slab.size(); ++i) {
      ASSERT_NEAR(slab[i].real(), orig[i].real(), 1e-9);
      ASSERT_NEAR(slab[i].imag(), orig[i].imag(), 1e-9);
    }
  });
}

TEST_P(DistFft, StaggeredRanksBitExact) {
  // Rank staggering reverses block arrival order relative to rank order;
  // the unpacks are source-addressed, so the result must not move.
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool})
    expect_matches_local(GetParam(), 8, {backend, /*stagger=*/true});
}

// XOR over four ranks of each k-space slab's CRC32 after one forward
// transform of a 128³ field, each rank's slab drawn from its own stream.
std::uint32_t forward_128_crc(dpp::Backend backend) {
  std::atomic<std::uint32_t> crc{0};
  comm::run_spmd(4, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, 128);
    dfft.set_backend(backend);
    Rng rng(20151115 + static_cast<std::uint64_t>(c.rank()));
    std::vector<Complex> slab(dfft.local_size());
    // One call draws both parts in the order the compiler evaluates the
    // arguments; the golden was recorded with GCC's order.
    for (auto& v : slab) v = Complex(rng.normal(), rng.normal());
    dfft.forward(slab);
    crc.fetch_xor(crc32(slab.data(), slab.size() * sizeof(Complex)));
  });
  return crc.load();
}

// The transposes' bits at P = 4, pinned on Serial, on an idle pool and on
// a pool that another thread keeps dispatching on.
TEST(DistFftGolden, ForwardMatchesGolden) {
  EXPECT_EQ(forward_128_crc(dpp::Backend::Serial), 0x082D0DFAu);
  EXPECT_EQ(forward_128_crc(dpp::Backend::ThreadPool), 0x082D0DFAu);
  EXPECT_EQ(testutil::with_pool_load(
                [] { return forward_128_crc(dpp::Backend::ThreadPool); }),
            0x082D0DFAu);
}

TEST(DistFftConfig, DefaultsAndSetters) {
  comm::run_spmd(1, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, 8);
    EXPECT_EQ(dfft.backend(), dpp::Backend::Serial);
    dfft.set_backend(dpp::Backend::ThreadPool);
    EXPECT_EQ(dfft.backend(), dpp::Backend::ThreadPool);
  });
}

TEST(DistFftErrors, RejectsIndivisibleGrid) {
  comm::run_spmd(3, [&](comm::Comm& c) {
    EXPECT_THROW(fft::DistributedFft(c, 8), Error);
  });
}

TEST(DistFftErrors, RejectsWrongSlabSize) {
  comm::run_spmd(2, [&](comm::Comm& c) {
    fft::DistributedFft dfft(c, 8);
    std::vector<Complex> bad(dfft.local_size() - 1);
    EXPECT_THROW(dfft.forward(bad), Error);
  });
}

}  // namespace
