// Data-parallel primitives — the PISTON/Thrust stand-in.
//
// Single-source portable algorithms: every analysis kernel (MBP potential
// sums, CIC deposits, histogram reductions) is written once against these
// primitives and executed on either backend. The Backend value plays the
// role of Thrust's execution policy; Serial is the reference implementation
// and ThreadPool is the "accelerator".
//
// Grain hints: every primitive takes an optional `grain` (items per
// scheduler chunk, 0 = auto). The work-stealing pool claims chunks
// dynamically, so a small grain lets load-imbalanced kernels (heavy
// per-item cost that varies, e.g. O(n) potential sums) balance across
// workers; the auto grain targets a few chunks per worker, right for cheap
// uniform loops. Results are backend- and grain-independent for every
// deterministic primitive: the block decompositions below combine partial
// results in fixed block order, never in thread arrival order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "dpp/thread_pool.h"
#include "obs/obs.h"
#include "util/error.h"

namespace cosmo::dpp {

enum class Backend {
  Serial,      ///< reference single-thread execution
  ThreadPool,  ///< many-core stand-in (process-wide worker pool)
};

inline const char* to_string(Backend b) {
  return b == Backend::Serial ? "serial" : "threadpool";
}

namespace detail {

template <typename Fn>
void for_each_range(Backend b, std::size_t n, Fn&& fn, std::size_t grain = 0) {
  COSMO_COUNT("dpp.primitive_calls", 1);
  COSMO_COUNT("dpp.primitive_items", n);
  if (b == Backend::Serial || n == 0) {
    if (n != 0) {
      COSMO_COUNT("dpp.serial_runs", 1);
      fn(std::size_t{0}, n);
    }
    return;
  }
  COSMO_HISTOGRAM("dpp.chunk_items_log10", 0.0, 9.0, 36,
                  n ? std::log10(static_cast<double>(n)) : 0.0);
  ThreadPool::instance().parallel_for(n, fn, grain);
}

/// Fixed block decomposition for partial-result algorithms (reduce, scan,
/// bucket_count): block boundaries depend only on (n, grain, workers), so
/// per-block partials can be combined in deterministic block order no
/// matter which thread ran which block. Blocks are dispatched as one
/// scheduler item each (grain 1 over the block index space), so stealing
/// balances blocks of uneven cost.
struct BlockDecomposition {
  std::size_t block_size = 0;
  std::size_t num_blocks = 0;

  BlockDecomposition(std::size_t n, std::size_t grain,
                     std::size_t min_block = 1) {
    const std::size_t nw = ThreadPool::instance().workers();
    std::size_t bs = grain;
    if (bs == 0) bs = (n + 4 * nw - 1) / (4 * nw);
    if (bs < min_block) bs = min_block;
    if (bs == 0) bs = 1;
    block_size = bs;
    num_blocks = n == 0 ? 0 : (n + bs - 1) / bs;
  }

  std::size_t lo(std::size_t block) const { return block * block_size; }
  std::size_t hi(std::size_t block, std::size_t n) const {
    const std::size_t h = lo(block) + block_size;
    return h < n ? h : n;
  }
};

}  // namespace detail

/// out[i] = fn(i) for i in [0, n). The index-based form subsumes
/// transform/zip/counting-iterator compositions without iterator machinery.
template <typename T, typename Fn>
void tabulate(Backend b, std::span<T> out, Fn fn, std::size_t grain = 0) {
  detail::for_each_range(
      b, out.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) out[i] = fn(i);
      },
      grain);
}

/// Calls fn(i) for each i in [0, n); fn must be data-race free across i.
template <typename Fn>
void for_each_index(Backend b, std::size_t n, Fn fn, std::size_t grain = 0) {
  detail::for_each_range(
      b, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

/// Calls fn(lo, hi) on disjoint subranges covering [0, n) — the chunked form
/// of for_each_index, for kernels that amortize per-chunk scratch (the
/// strided FFT row transforms carry one scratch buffer per chunk instead of
/// one per item). fn must be safe to run concurrently on disjoint ranges.
template <typename Fn>
void for_each_chunk(Backend b, std::size_t n, Fn fn, std::size_t grain = 0) {
  detail::for_each_range(b, n, fn, grain);
}

/// Reduction of fn(i) over [0, n) with an associative op. Partial results
/// are combined in block order, so the parallel result is deterministic
/// (and equals Serial whenever op is exactly associative).
template <typename T, typename Fn, typename Op>
T transform_reduce(Backend b, std::size_t n, T init, Op op, Fn fn,
                   std::size_t grain = 0) {
  if (b == Backend::Serial || n == 0) {
    T acc = init;
    for (std::size_t i = 0; i < n; ++i) acc = op(acc, fn(i));
    return acc;
  }
  const detail::BlockDecomposition blocks(n, grain);
  std::vector<T> partial(blocks.num_blocks, init);
  for_each_index(
      b, blocks.num_blocks,
      [&](std::size_t blk) {
        T acc = init;
        const std::size_t hi = blocks.hi(blk, n);
        for (std::size_t i = blocks.lo(blk); i < hi; ++i) acc = op(acc, fn(i));
        partial[blk] = acc;
      },
      /*grain=*/1);
  T acc = init;
  for (const auto& p : partial) acc = op(acc, p);
  return acc;
}

/// Sum reduction over a span.
template <typename T>
T reduce(Backend b, std::span<const T> in, T init = T{}) {
  return transform_reduce(
      b, in.size(), init, [](T a, T v) { return a + v; },
      [&](std::size_t i) { return in[i]; });
}

/// Index of the minimum of fn(i) over [0, n); ties break to the lowest
/// index so results are backend-independent. `grain` follows the cost of
/// fn: pass a small grain when single evaluations are expensive.
template <typename Fn>
std::size_t argmin(Backend b, std::size_t n, Fn fn, std::size_t grain = 0) {
  COSMO_REQUIRE(n > 0, "argmin of empty range");
  using V = decltype(fn(std::size_t{0}));
  struct Best {
    V value;
    std::size_t index;
  };
  auto better = [](const Best& a, const Best& c) {
    if (c.value < a.value) return c;
    if (c.value == a.value && c.index < a.index) return c;
    return a;
  };
  Best init{std::numeric_limits<V>::max(), std::numeric_limits<std::size_t>::max()};
  Best r = transform_reduce(
      b, n, init, better, [&](std::size_t i) { return Best{fn(i), i}; },
      grain);
  return r.index;
}

/// Exclusive prefix sum: out[i] = sum of in[0..i). Returns the total.
/// Two-pass block scan (scan-then-propagate) on the pool backend; += only
/// needs to be associative, not commutative — block offsets are combined
/// strictly left to right.
template <typename T>
T exclusive_scan(Backend b, std::span<const T> in, std::span<T> out,
                 std::size_t grain = 0) {
  COSMO_REQUIRE(in.size() == out.size(), "scan size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return T{};
  if (b == Backend::Serial) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];  // allow in == out aliasing
      out[i] = acc;
      acc += v;
    }
    return acc;
  }
  const detail::BlockDecomposition blocks(n, grain);
  std::vector<T> block_sum(blocks.num_blocks, T{});
  for_each_index(
      b, blocks.num_blocks,
      [&](std::size_t blk) {
        T acc{};
        const std::size_t hi = blocks.hi(blk, n);
        for (std::size_t i = blocks.lo(blk); i < hi; ++i) acc += in[i];
        block_sum[blk] = acc;
      },
      /*grain=*/1);
  T total{};
  std::vector<T> block_off(blocks.num_blocks, T{});
  for (std::size_t blk = 0; blk < blocks.num_blocks; ++blk) {
    block_off[blk] = total;
    total += block_sum[blk];
  }
  for_each_index(
      b, blocks.num_blocks,
      [&](std::size_t blk) {
        T acc = block_off[blk];
        const std::size_t hi = blocks.hi(blk, n);
        for (std::size_t i = blocks.lo(blk); i < hi; ++i) {
          const T v = in[i];
          out[i] = acc;
          acc += v;
        }
      },
      /*grain=*/1);
  return total;
}

/// Inclusive prefix sum: out[i] = sum of in[0..i]. Returns the total.
template <typename T>
T inclusive_scan(Backend b, std::span<const T> in, std::span<T> out) {
  const T total = exclusive_scan(b, in, out);
  // out[i] currently holds the exclusive sum; add in[i] back.
  for_each_index(b, in.size(), [&](std::size_t i) { out[i] += in[i]; });
  return total;
}

/// out[i] = in[map[i]].
template <typename T, typename I>
void gather(Backend b, std::span<const T> in, std::span<const I> map,
            std::span<T> out) {
  COSMO_REQUIRE(map.size() == out.size(), "gather size mismatch");
  for_each_index(b, map.size(), [&](std::size_t i) {
    out[i] = in[static_cast<std::size_t>(map[i])];
  });
}

/// out[map[i]] = in[i]; map must be a permutation-like injection.
template <typename T, typename I>
void scatter(Backend b, std::span<const T> in, std::span<const I> map,
             std::span<T> out) {
  COSMO_REQUIRE(map.size() == in.size(), "scatter size mismatch");
  for_each_index(b, map.size(), [&](std::size_t i) {
    out[static_cast<std::size_t>(map[i])] = in[i];
  });
}

/// Stable sort of `index` (a permutation of [0,n)) by keys[index[i]].
/// Parallel backend: per-chunk sorts followed by log2 rounds of pairwise
/// inplace_merge; each run/merge is one scheduler item (grain 1) so the
/// pool steals whole runs.
template <typename K>
void sort_indices_by_key(Backend b, std::span<const K> keys,
                         std::vector<std::uint32_t>& index) {
  const std::size_t n = keys.size();
  index.resize(n);
  for (std::size_t i = 0; i < n; ++i) index[i] = static_cast<std::uint32_t>(i);
  auto cmp = [&](std::uint32_t a, std::uint32_t c) { return keys[a] < keys[c]; };
  if (b == Backend::Serial || n < 4096) {
    std::stable_sort(index.begin(), index.end(), cmp);
    return;
  }
  auto& pool = ThreadPool::instance();
  const std::size_t nw = pool.workers();
  const std::size_t chunk = (n + nw - 1) / nw;
  // Phase 1: sort each chunk independently.
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t lo = 0; lo < n; lo += chunk)
    runs.emplace_back(lo, std::min(lo + chunk, n));
  for_each_index(
      b, runs.size(),
      [&](std::size_t r) {
        std::stable_sort(index.begin() + static_cast<std::ptrdiff_t>(runs[r].first),
                         index.begin() + static_cast<std::ptrdiff_t>(runs[r].second),
                         cmp);
      },
      /*grain=*/1);
  // Phase 2: pairwise merges until one run remains.
  while (runs.size() > 1) {
    std::vector<std::pair<std::size_t, std::size_t>> merged;
    const std::size_t pairs = runs.size() / 2;
    merged.reserve(pairs + 1);
    for (std::size_t p = 0; p < pairs; ++p)
      merged.emplace_back(runs[2 * p].first, runs[2 * p + 1].second);
    if (runs.size() % 2) merged.push_back(runs.back());
    for_each_index(
        b, pairs,
        [&](std::size_t p) {
          auto first = index.begin() + static_cast<std::ptrdiff_t>(runs[2 * p].first);
          auto mid = index.begin() + static_cast<std::ptrdiff_t>(runs[2 * p].second);
          auto last = index.begin() + static_cast<std::ptrdiff_t>(runs[2 * p + 1].second);
          std::inplace_merge(first, mid, last, cmp);
        },
        /*grain=*/1);
    runs = std::move(merged);
  }
}

/// Scatter-reduce ("deposit"): item i adds contributions at arbitrary
/// offsets of an accumulator the size of `dest` — the shape of the CIC
/// density deposit, where every particle scatters weights onto 8 grid
/// cells and plain parallel for_each would race on the += .
///
/// scatter(buf, i) must only ever += into `buf` (a dest-sized span).
/// Contributions are accumulated on top of dest's existing contents.
///
/// Parallel structure: the item range is cut into a bounded number of
/// contiguous blocks (at most kMaxDepositBuffers × pool-width private
/// buffers, so memory stays O(workers × dest.size()) no matter the grain).
/// Block 0 scatters directly into dest; every other block scatters into
/// its own zero-filled private buffer. The buffers are then merged into
/// dest in fixed ascending block order, sliced across disjoint dest ranges
/// so the merge itself parallelizes race-free.
///
/// Determinism contract (the PR-2 reduce/scan contract, extended to
/// scatter): block boundaries and merge order depend only on
/// (n, grain, pool width) — never on which thread ran which block — and
/// the Serial backend executes the *same* decomposition single-threaded.
/// Serial and ThreadPool results are therefore bit-identical for floating
/// point T, per call shape. (As with reduce, results for non-associative
/// += can differ across *grains*, which change the block structure.)
template <typename T, typename Scatter>
void deposit_reduce(Backend b, std::size_t n, std::span<T> dest,
                    Scatter scatter, std::size_t grain = 0) {
  COSMO_COUNT("dpp.deposit_calls", 1);
  COSMO_COUNT("dpp.deposit_items", n);
  if (n == 0) return;
  constexpr std::size_t kMaxDepositBuffers = 4;  // per pool worker
  const std::size_t nw = ThreadPool::instance().workers();
  // Two caps on the block count, both deterministic in (n, m, pool width):
  // memory stays O(workers) buffers, and merge work ((blocks−1)·m adds)
  // stays within ~8 adds per item — the CIC scatter's own cost — so the
  // reduction never dominates in the sparse items-per-cell regime.
  const std::size_t m = dest.size();
  std::size_t max_blocks = kMaxDepositBuffers * nw;
  if (m > 0) max_blocks = std::min(max_blocks, 1 + 8 * n / m);
  if (max_blocks < 1) max_blocks = 1;
  const std::size_t min_block = (n + max_blocks - 1) / max_blocks;
  const detail::BlockDecomposition blocks(n, grain, min_block);
  if (blocks.num_blocks <= 1) {
    // Single block: in-order scatter straight into dest, both backends.
    for (std::size_t i = 0; i < n; ++i) scatter(dest, i);
    return;
  }
  COSMO_COUNT("dpp.deposit_buffers", blocks.num_blocks - 1);
  std::vector<std::vector<T>> partial(blocks.num_blocks - 1);
  for_each_index(
      b, blocks.num_blocks,
      [&](std::size_t blk) {
        std::span<T> buf = dest;
        if (blk != 0) {
          auto& mine = partial[blk - 1];
          mine.assign(dest.size(), T{});
          buf = mine;
        }
        const std::size_t hi = blocks.hi(blk, n);
        for (std::size_t i = blocks.lo(blk); i < hi; ++i) scatter(buf, i);
      },
      /*grain=*/1);
  // Plane-sliced merge: each slice owns a disjoint dest range and folds the
  // private buffers in ascending block order — deterministic and race-free.
  const detail::BlockDecomposition slices(m, /*grain=*/0, /*min_block=*/1024);
  for_each_index(
      b, slices.num_blocks,
      [&](std::size_t s) {
        const std::size_t slo = slices.lo(s);
        const std::size_t shi = slices.hi(s, m);
        for (const auto& p : partial)
          for (std::size_t j = slo; j < shi; ++j) dest[j] += p[j];
      },
      /*grain=*/1);
}

/// Counts of key occurrences for keys in [0, num_buckets); the building
/// block for CIC binning and halo-id segmentation. Parallel backend uses
/// per-block count arrays merged in block order (blocks are kept coarse —
/// each one carries a num_buckets-sized scratch array).
template <typename I>
std::vector<std::uint64_t> bucket_count(Backend b, std::span<const I> keys,
                                        std::size_t num_buckets) {
  std::vector<std::uint64_t> counts(num_buckets, 0);
  if (b == Backend::Serial || keys.size() < 4096) {
    for (const auto k : keys) {
      const auto kk = static_cast<std::size_t>(k);
      COSMO_REQUIRE(kk < num_buckets, "bucket key out of range");
      ++counts[kk];
    }
    return counts;
  }
  const std::size_t n = keys.size();
  const detail::BlockDecomposition blocks(n, /*grain=*/0, /*min_block=*/4096);
  std::vector<std::vector<std::uint64_t>> partial(
      blocks.num_blocks, std::vector<std::uint64_t>(num_buckets, 0));
  for_each_index(
      b, blocks.num_blocks,
      [&](std::size_t blk) {
        auto& mine = partial[blk];
        const std::size_t hi = blocks.hi(blk, n);
        for (std::size_t i = blocks.lo(blk); i < hi; ++i) {
          const auto kk = static_cast<std::size_t>(keys[i]);
          COSMO_REQUIRE(kk < num_buckets, "bucket key out of range");
          ++mine[kk];
        }
      },
      /*grain=*/1);
  for (const auto& p : partial)
    for (std::size_t k = 0; k < num_buckets; ++k) counts[k] += p[k];
  return counts;
}

/// Compacts indices whose predicate holds, preserving order.
template <typename Pred>
std::vector<std::uint32_t> copy_if_index(Backend b, std::size_t n, Pred pred) {
  std::vector<std::uint8_t> flags(n);
  tabulate<std::uint8_t>(b, flags, [&](std::size_t i) {
    return pred(i) ? std::uint8_t{1} : std::uint8_t{0};
  });
  std::vector<std::uint32_t> offsets(n);
  std::vector<std::uint32_t> flags32(flags.begin(), flags.end());
  const std::uint32_t total = exclusive_scan<std::uint32_t>(
      b, std::span<const std::uint32_t>(flags32), std::span<std::uint32_t>(offsets));
  std::vector<std::uint32_t> out(total);
  for_each_index(b, n, [&](std::size_t i) {
    if (flags[i]) out[offsets[i]] = static_cast<std::uint32_t>(i);
  });
  return out;
}

}  // namespace cosmo::dpp
