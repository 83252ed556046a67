// Tests for the data-parallel primitives (PISTON stand-in).
//
// The primitives run on both backends via TEST_P (for_each_index through
// deposit_reduce's blocks); deposit_reduce's ThreadPool results must be
// bit-identical to Serial. The DppPool suites drive the scheduler
// underneath them directly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "comm/comm.h"
#include "dpp/primitives.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using dpp::Backend;

class DppBackends : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, DppBackends,
                         ::testing::Values(Backend::Serial,
                                           Backend::ThreadPool),
                         [](const auto& info) {
                           return dpp::to_string(info.param);
                         });

TEST_P(DppBackends, TabulateFillsEveryIndex) {
  std::vector<std::int64_t> out(10007);
  dpp::tabulate<std::int64_t>(GetParam(), out,
                              [](std::size_t i) { return 3 * static_cast<std::int64_t>(i) + 1; });
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], 3 * static_cast<std::int64_t>(i) + 1);
}

TEST_P(DppBackends, TabulateEmptyIsNoop) {
  std::vector<int> out;
  dpp::tabulate<int>(GetParam(), out, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

// for_each_chunk hands out non-empty ranges that together cover [0, n)
// exactly once, which also makes them disjoint. With an explicit grain no
// pooled chunk is larger than the grain; Serial, the reference, runs the
// whole range as one chunk.
TEST_P(DppBackends, ForEachChunkCoversRangeOnceWithinGrain) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}, std::size_t{54321}}) {
    for (const std::size_t grain : {std::size_t{0}, std::size_t{97}}) {
      std::vector<std::atomic<std::uint32_t>> seen(n);
      std::atomic<std::size_t> chunks{0}, max_chunk{0}, bad_ranges{0};
      dpp::for_each_chunk(
          GetParam(), n,
          [&](std::size_t lo, std::size_t hi) {
            if (lo >= hi || hi > n) {
              bad_ranges.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            chunks.fetch_add(1, std::memory_order_relaxed);
            std::size_t prev = max_chunk.load(std::memory_order_relaxed);
            while (hi - lo > prev &&
                   !max_chunk.compare_exchange_weak(prev, hi - lo)) {
            }
            for (std::size_t i = lo; i < hi; ++i)
              seen[i].fetch_add(1, std::memory_order_relaxed);
          },
          grain);
      ASSERT_EQ(bad_ranges.load(), 0u) << "n " << n << " grain " << grain;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(seen[i].load(), 1u)
            << "index " << i << " n " << n << " grain " << grain;
      if (n == 0) {
        EXPECT_EQ(chunks.load(), 0u);
      } else if (GetParam() == Backend::Serial) {
        EXPECT_EQ(chunks.load(), 1u) << "n " << n;
        EXPECT_EQ(max_chunk.load(), n);
      } else if (grain != 0) {
        EXPECT_LE(max_chunk.load(), grain) << "n " << n;
        EXPECT_EQ(chunks.load(), (n + grain - 1) / grain) << "n " << n;
      }
    }
  }
}

// ------------------------------------------------- deposit_reduce (scatter)

// CIC-shaped scatter used by the deposit tests: item i adds fractional
// weights to two adjacent cells of a wrapping 1-D grid.
struct TestScatter {
  std::size_t cells;
  std::span<const double> pos;  // fractional grid positions
  void operator()(std::span<double> buf, std::size_t i) const {
    const auto c = static_cast<std::size_t>(pos[i]);
    const double frac = pos[i] - static_cast<double>(c);
    buf[c % cells] += 1.0 - frac;
    buf[(c + 1) % cells] += frac;
  }
};

TEST_P(DppBackends, DepositReduceConservesScatteredWeight) {
  Rng rng(21);
  constexpr std::size_t kCells = 257;
  std::vector<double> pos(60011);
  for (auto& p : pos) p = rng.uniform(0.0, static_cast<double>(kCells));
  std::vector<double> grid(kCells, 0.0);
  dpp::deposit_reduce<double>(GetParam(), pos.size(), grid,
                              TestScatter{kCells, pos});
  const double total = std::accumulate(grid.begin(), grid.end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(pos.size()), 1e-6);
}

TEST_P(DppBackends, DepositReduceExactWithIntegerWeights) {
  // Integer-valued doubles are exact under any summation order, so the
  // result must match a plain serial count regardless of decomposition.
  Rng rng(22);
  constexpr std::size_t kCells = 100;
  std::vector<std::size_t> target(50000);
  for (auto& t : target) t = rng.below(kCells);
  std::vector<double> grid(kCells, 0.0);
  dpp::deposit_reduce<double>(
      GetParam(), target.size(), grid,
      [&](std::span<double> buf, std::size_t i) { buf[target[i]] += 1.0; });
  std::vector<double> expect(kCells, 0.0);
  for (auto t : target) expect[t] += 1.0;
  EXPECT_EQ(grid, expect);
}

TEST_P(DppBackends, DepositReduceAccumulatesOntoExistingDest) {
  std::vector<double> grid(8, 10.0);
  dpp::deposit_reduce<double>(
      GetParam(), 16, grid,
      [](std::span<double> buf, std::size_t i) { buf[i % 8] += 1.0; });
  for (const auto v : grid) EXPECT_DOUBLE_EQ(v, 12.0);
}

TEST_P(DppBackends, DepositReduceEmptyIsNoop) {
  std::vector<double> grid(4, 1.0);
  dpp::deposit_reduce<double>(
      GetParam(), 0, grid,
      [](std::span<double> buf, std::size_t) { buf[0] += 1.0; });
  EXPECT_EQ(grid, (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

// The determinism contract: for every grain, the ThreadPool result is
// bit-identical to Serial — the block decomposition and merge order depend
// only on (n, grain, pool width), never on which thread ran which block.
TEST(DppDeposit, BackendsBitIdenticalAcrossGrains) {
  Rng rng(23);
  constexpr std::size_t kCells = 513;
  std::vector<double> pos(40009);
  for (auto& p : pos) p = rng.uniform(0.0, static_cast<double>(kCells));
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{37}, std::size_t{4096},
                                  std::size_t{1000000}}) {
    std::vector<double> serial(kCells, 0.0), pooled(kCells, 0.0);
    dpp::deposit_reduce<double>(Backend::Serial, pos.size(), serial,
                                TestScatter{kCells, pos}, grain);
    dpp::deposit_reduce<double>(Backend::ThreadPool, pos.size(), pooled,
                                TestScatter{kCells, pos}, grain);
    for (std::size_t c = 0; c < kCells; ++c)
      ASSERT_EQ(serial[c], pooled[c]) << "cell " << c << " grain " << grain;
    // Same-backend reruns are bit-stable too.
    std::vector<double> again(kCells, 0.0);
    dpp::deposit_reduce<double>(Backend::ThreadPool, pos.size(), again,
                                TestScatter{kCells, pos}, grain);
    ASSERT_EQ(pooled, again) << "grain " << grain;
  }
}

// Concurrent SPMD ranks each running their own deposit must neither race
// nor cross-contaminate accumulators (the TSan-covered dispatch shape the
// parallel CIC deposit adds: scatter blocks plus the plane-sliced merge).
TEST(DppDeposit, ConcurrentRankDepositsStayExact) {
  constexpr int kRanks = 4;
  constexpr int kIters = 6;
  constexpr std::size_t kCells = 1024;
  constexpr std::size_t kItems = 60000;
  comm::run_spmd(kRanks, [&](comm::Comm& c) {
    Rng rng(31 + static_cast<std::uint64_t>(c.rank()));
    std::vector<std::size_t> target(kItems);
    for (auto& t : target) t = rng.below(kCells);
    std::vector<double> expect(kCells, 0.0);
    for (auto t : target) expect[t] += 1.0;
    for (int iter = 0; iter < kIters; ++iter) {
      std::vector<double> grid(kCells, 0.0);
      dpp::deposit_reduce<double>(
          Backend::ThreadPool, kItems, grid,
          [&](std::span<double> buf, std::size_t i) {
            buf[target[i]] += 1.0;
          });
      ASSERT_EQ(grid, expect) << "rank " << c.rank() << " iter " << iter;
    }
    c.barrier();
  });
}

// A fail-fast guard inside a dispatched kernel must surface as an ordinary
// exception at the dispatch site — not std::terminate on a worker thread.
// (The parallel deposit and the CIC interpolation guard both rely on this.)
TEST(DppPool, ParallelForPropagatesWorkerExceptions) {
  constexpr std::size_t kN = 100000;
  auto throwing = [&] {
    dpp::ThreadPool::instance().parallel_for(
        kN,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            COSMO_REQUIRE(i != kN - 7, "poisoned item");
        },
        /*grain=*/64);
  };
  EXPECT_THROW(throwing(), Error);
  // The pool must stay fully usable afterwards.
  std::vector<std::uint64_t> out(kN);
  dpp::ThreadPool::instance().parallel_for(
      kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) out[i] = 2 * i;
      });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], 2 * i);
}

// Exceptions propagate through deposit_reduce's pooled path as well (the
// scatter phase runs on workers).
TEST(DppDeposit, ScatterExceptionPropagates) {
  std::vector<double> grid(16, 0.0);
  auto bad = [&] {
    dpp::deposit_reduce<double>(
        Backend::ThreadPool, 100000, grid,
        [](std::span<double> buf, std::size_t i) {
          COSMO_REQUIRE(i != 99999, "poisoned scatter");
          buf[i % 16] += 1.0;
        });
  };
  EXPECT_THROW(bad(), Error);
}

TEST(DppPool, WorkersAtLeastTwo) {
  EXPECT_GE(dpp::ThreadPool::instance().workers(), 2u);
}

// Concurrent-dispatch stress: N SPMD ranks × M dispatches each drive the
// pool simultaneously. The work-stealing scheduler runs the groups
// concurrently (no global dispatch lock), so the only invariant is
// correctness: every index of every rank's dispatch executes exactly once,
// and the dispatch/wait metrics keep recording.
TEST(DppPool, ConcurrentDispatchStressIsExactlyOnce) {
  constexpr int kRanks = 4;
  constexpr int kIters = 8;
  constexpr std::size_t kN = 100000;
#ifndef COSMO_OBS_DISABLED
  const std::uint64_t dispatches_before =
      obs::MetricsRegistry::instance().counter("dpp.dispatches").total();
#endif
  comm::run_spmd(kRanks, [&](comm::Comm& c) {
    for (int iter = 0; iter < kIters; ++iter) {
      // Each rank marks its own array; exactly-once per index proves its
      // group's chunks were neither lost nor double-claimed while other
      // ranks' groups ran on the same workers.
      std::vector<std::atomic<std::uint32_t>> marks(kN);
      dpp::ThreadPool::instance().parallel_for(
          kN, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
              marks[i].fetch_add(1, std::memory_order_relaxed);
          });
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(marks[i].load(), 1u) << "index " << i << " on rank "
                                       << c.rank() << " iter " << iter;
    }
    c.barrier();
  });
#ifndef COSMO_OBS_DISABLED
  const std::uint64_t dispatches_after =
      obs::MetricsRegistry::instance().counter("dpp.dispatches").total();
  EXPECT_GE(dispatches_after - dispatches_before,
            static_cast<std::uint64_t>(kRanks * kIters));
  // The straggler-wait distribution was recorded.
  EXPECT_TRUE(obs::MetricsRegistry::instance().has_histogram(
      "dpp.dispatch_wait_ms"));
#endif
}

// Regression for the old scheduler's latent deadlock: a parallel_for issued
// from INSIDE a dispatched function (worker context) used to block on the
// global dispatch mutex forever. The task-group scheduler help-executes
// instead, so nesting must complete.
TEST(DppPool, NestedParallelForFromWorkerCompletes) {
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 4096;
  constexpr int kMaxAttempts = 50;
  const std::uint64_t expect = kInner * (kInner - 1) / 2;
#ifndef COSMO_OBS_DISABLED
  const std::uint64_t nested_before =
      obs::MetricsRegistry::instance().counter("dpp.nested_dispatches").total();
#endif
  // The dispatching thread help-executes, so on an oversubscribed host it
  // can claim every grain-1 outer chunk before a pool worker wakes. Repeat
  // until at least one outer item genuinely ran on a worker thread — that
  // is the configuration whose nested dispatch used to deadlock.
  std::uint64_t worker_items = 0;
  for (int attempt = 0; attempt < kMaxAttempts && worker_items == 0;
       ++attempt) {
    std::vector<std::atomic<std::uint64_t>> sums(kOuter);
    std::atomic<std::uint64_t> from_worker{0};
    dpp::ThreadPool::instance().parallel_for(
        kOuter,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t o = lo; o < hi; ++o) {
            if (dpp::ThreadPool::in_worker())
              from_worker.fetch_add(1, std::memory_order_relaxed);
            std::atomic<std::uint64_t> inner{0};
            dpp::ThreadPool::instance().parallel_for(
                kInner, [&](std::size_t ilo, std::size_t ihi) {
                  std::uint64_t acc = 0;
                  for (std::size_t i = ilo; i < ihi; ++i) acc += i;
                  inner.fetch_add(acc, std::memory_order_relaxed);
                });
            sums[o].store(inner.load(), std::memory_order_relaxed);
          }
        },
        /*grain=*/1);
    for (std::size_t o = 0; o < kOuter; ++o)
      ASSERT_EQ(sums[o].load(), expect) << "outer " << o;
    worker_items += from_worker.load();
  }
  EXPECT_GT(worker_items, 0u) << "no outer chunk ever landed on a worker";
#ifndef COSMO_OBS_DISABLED
  // Each worker-run outer item issues exactly one inner dispatch from
  // worker context; help-run outer items (main thread) are not nested.
  EXPECT_EQ(obs::MetricsRegistry::instance()
                    .counter("dpp.nested_dispatches")
                    .total() -
                nested_before,
            worker_items);
#endif
}

// Dynamic chunking must honor an explicit grain: no chunk larger than the
// grain, full exactly-once coverage.
TEST(DppPool, ExplicitGrainBoundsChunks) {
  constexpr std::size_t kN = 10000;
  constexpr std::size_t kGrain = 128;
  std::vector<std::atomic<std::uint8_t>> seen(kN);
  std::atomic<std::size_t> max_chunk{0};
  dpp::ThreadPool::instance().parallel_for(
      kN,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t prev = max_chunk.load(std::memory_order_relaxed);
        while (hi - lo > prev &&
               !max_chunk.compare_exchange_weak(prev, hi - lo)) {
        }
        for (std::size_t i = lo; i < hi; ++i)
          seen[i].fetch_add(1, std::memory_order_relaxed);
      },
      kGrain);
  EXPECT_LE(max_chunk.load(), kGrain);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(seen[i].load(), 1u);
}

// Work-stealing imbalance: one rank dispatches 10x the items of the other.
// Both ranks' results must be exact, and (with groups spread across worker
// deques) steals must actually happen so the big rank's chunks spill onto
// every worker.
TEST(DppPool, WorkStealingBalancesImbalancedRanks) {
  constexpr int kRanks = 2;
  constexpr int kIters = 16;
  constexpr int kMaxAttempts = 25;
  constexpr std::size_t kSmall = 20000;
  auto run_imbalanced = [&] {
    comm::run_spmd(kRanks, [&](comm::Comm& c) {
      const std::size_t mine = c.rank() == 0 ? 10 * kSmall : kSmall;
      std::vector<std::uint64_t> out(mine);
      for (int iter = 0; iter < kIters; ++iter) {
        dpp::ThreadPool::instance().parallel_for(
            mine, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) out[i] = 3 * i + 1;
            });
        for (std::size_t i = 0; i < mine; ++i)
          ASSERT_EQ(out[i], 3 * i + 1)
              << "rank " << c.rank() << " iter " << iter;
      }
      c.barrier();
    });
  };
#ifndef COSMO_OBS_DISABLED
  // Whether a worker gets to steal (rather than the dispatching rank
  // threads help-executing everything themselves) depends on OS
  // scheduling; on a loaded host a single run can legitimately see none.
  // Correctness is asserted every attempt; retry until a steal shows up.
  const std::uint64_t steals_before =
      obs::MetricsRegistry::instance().counter("dpp.steals").total();
  auto steals = [] {
    return obs::MetricsRegistry::instance().counter("dpp.steals").total();
  };
  for (int attempt = 0; attempt < kMaxAttempts && steals() == steals_before;
       ++attempt)
    run_imbalanced();
  EXPECT_GT(steals(), steals_before);
#else
  run_imbalanced();
#endif
}

// ---- chunking ---------------------------------------------------------------
//
// The DppAutotune suite once drove the pool's steal-aware grain feedback. On
// every measured workload that loop settled at 32 chunks per worker, which is
// now the constant kChunksPerWorker: a dispatch's chunk count depends only on
// n, the grain and the pool size.

// Runs one dispatch of n items on `pool` with an imbalanced cost profile
// (early indices ~100x heavier), checks every output and returns the number
// of chunks the dispatch ran.
std::uint64_t chunks_of_imbalanced_dispatch(dpp::ThreadPool& pool,
                                            std::size_t n, std::size_t grain) {
  auto value = [n](std::size_t i) {
    std::uint64_t acc = i;
    const int reps = i < n / 8 ? 100 : 1;
    for (int r = 0; r < reps; ++r) acc = acc * 2862933555777941757ULL + 1;
    return acc;
  };
  std::atomic<std::uint64_t> chunks{0};
  std::vector<std::uint64_t> out(n);
  pool.parallel_for(
      n,
      [&](std::size_t lo, std::size_t hi) {
        chunks.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = lo; i < hi; ++i) out[i] = value(i);
      },
      grain);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(out[i], value(i)) << "index " << i;
  return chunks.load();
}

// A grain-0 imbalanced dispatch runs the refined chunking the feedback used
// to reach only after up to ~6,300 chunks: 32 chunks per worker from the
// first dispatch on, and the same on every repeat.
TEST(DppAutotune, ShiftRefinesChunkingForImbalancedDispatch) {
  dpp::ThreadPool pool(2);
  for (int rep = 0; rep < 3; ++rep)
    EXPECT_EQ(chunks_of_imbalanced_dispatch(pool, 4096, 0), 64u)
        << "repeat " << rep;  // 32 per worker x 2 workers
}

// Explicit grains are a caller contract and are used as given (deterministic
// block structure is what the deposit's bit-exactness rests on).
TEST(DppAutotune, ExplicitGrainIsNeverOverridden) {
  dpp::ThreadPool pool(2);
  EXPECT_EQ(chunks_of_imbalanced_dispatch(pool, 1000, 100), 10u);  // 1000/100
}

}  // namespace
