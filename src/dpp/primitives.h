// Data-parallel primitives — the PISTON/Thrust stand-in.
//
// Single-source portable algorithms: every pooled analysis kernel is
// written once against these four primitives and runs on either backend.
// The Backend value plays the role of Thrust's execution policy; Serial is
// the reference implementation and ThreadPool is the "accelerator".
//
//   tabulate        out[i] = fn(i): MBP potential tables, SO and profile radii
//   for_each_index  fn(i): the per-halo fan-out, FOF and shape blocks
//   for_each_chunk  fn(lo, hi): FFT rows and pack/unpack, MBP tiles, NFW radii
//   deposit_reduce  scatter-add through private buffers: the CIC deposit
//
// Grain hints: every primitive takes an optional `grain` (items per
// scheduler chunk, 0 = auto). The work-stealing pool claims chunks
// dynamically, so a small grain lets load-imbalanced kernels (heavy
// per-item cost that varies, e.g. O(n) potential sums) balance across
// workers; the auto grain cuts 32 chunks per worker, right for cheap
// uniform loops. deposit_reduce merges its blocks in fixed block order,
// never in thread arrival order, so its result is backend-independent.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "dpp/thread_pool.h"
#include "obs/obs.h"

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

/// Fixed block decomposition for partial-result kernels (deposit_reduce's
/// private buffers and merge slices, FOF's linking blocks, halo_shape's
/// inertia partials): block boundaries depend only on (n, grain, workers),
/// so per-block partials can be combined in deterministic block order no
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
/// Determinism contract: block boundaries and merge order depend only on
/// (n, grain, pool width) — never on which thread ran which block — and
/// the Serial backend runs the *same* blocks and the same additions one
/// block at a time through a single reused buffer. Serial and ThreadPool
/// results are therefore bit-identical for floating point T, per call
/// shape. (Results for non-associative += can differ across *grains*,
/// which change the block structure.)
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
  if (b == Backend::Serial) {
    // One block at a time through one reused buffer: block 0 scatters into
    // dest, each later block into the zeroed buffer, which is then added
    // into dest and zeroed again. Every dest[j] gains block 1's sum, then
    // block 2's, …: the pooled merge's additions, in its order.
    COSMO_COUNT("dpp.deposit_buffers", 1);
    for (std::size_t i = 0; i < blocks.hi(0, n); ++i) scatter(dest, i);
    std::vector<T> buf(m, T{});
    for (std::size_t blk = 1; blk < blocks.num_blocks; ++blk) {
      const std::size_t hi = blocks.hi(blk, n);
      for (std::size_t i = blocks.lo(blk); i < hi; ++i) scatter(buf, i);
      for (std::size_t j = 0; j < m; ++j) {
        dest[j] += buf[j];
        buf[j] = T{};
      }
    }
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

}  // namespace cosmo::dpp
