#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
# Always build before ctest — running ctest against a stale or empty build
# tree registers "<suite>_NOT_BUILT" placeholder tests instead of real ones.
# This script (and the `check` target it drives) makes that ordering
# impossible to get wrong.
#
# Modes:
#   scripts/verify.sh          full tier-1: configure + build + ctest
#   scripts/verify.sh --unit   fast lane: build + run only tests labelled
#                              `unit` (the pure in-process suites; skips the
#                              integration workflows and the fault soak)
#   scripts/verify.sh --tsan   ThreadSanitizer pass over the concurrency
#                              layer: builds test_dpp (scheduler + the
#                              concurrent-dispatch/nesting/stealing stress
#                              tests), test_comm (mailbox + the one
#                              all-to-all loop), test_fft (the transposes
#                              on that loop, pack/unpack on the pool),
#                              test_faults (fault injection on the
#                              comm/listener/staging hot paths, including
#                              the coordinated-abort collectives),
#                              test_halo_parallel (the
#                              per-halo fan-out, the symmetric MBP kernel
#                              run as one pool task per halo
#                              (SymmetricMbpKernel.*), parallel FOF linking
#                              into one shared lock-free union-find on
#                              16-point leaves, with leaf pairs in AVX2
#                              lanes (ExactFof.SizesAroundTheLeafSize,
#                              ExactFof.LaneBodyMatchesScalarBodyOnEveryLeafPair),
#                              the union-find itself from pool chunks and from
#                              four ranks at once, and the parallel k-d tree
#                              build racing nested dispatches),
#                              test_workflows (the staging
#                              handoff between the simulation and Level 2
#                              jobs), test_campaign (concurrent analysis
#                              jobs on listener threads, drained on success
#                              and on failure) and test_sim (every rank's
#                              synthetic-universe radius solve on the shared
#                              pool) with -DCOSMO_TSAN=ON in build-tsan/ and
#                              fails on any reported race.
#   scripts/verify.sh --asan   AddressSanitizer + UBSan pass over the index
#                              arithmetic: builds test_dpp (deposit_reduce's
#                              private buffers, its Serial one-buffer
#                              blocks, slice merge and block ranges,
#                              for_each_chunk's ranges), test_comm (the
#                              all-to-all loop reading each payload in
#                              place as its element type), test_fft (the
#                              per-length plans' swap and twiddle tables,
#                              the transposes' pack/unpack index
#                              arithmetic), test_halo
#                              (k-d range and
#                              kNN oracles, k = 0, subhalo densities and the
#                              shared neighbour lists across the periodic
#                              seams), test_halo_parallel
#                              (FOF leaf ranges over the tree's point copy,
#                              the lane body's padded groups and masks on
#                              leaves around 16 points,
#                              ExactFof.SizesAroundTheLeafSize and
#                              ExactFof.LaneBodyMatchesScalarBodyOnEveryLeafPair,
#                              k-d tree layout, A* bounds, the symmetric MBP
#                              kernel's blocks, transposed tiles and n mod 4
#                              tails, SymmetricMbpKernel.*), test_halo_shape
#                              (inertia-tensor shapes), test_robustness
#                              (FOF permutation invariance, coincident and
#                              empty inputs), test_io,
#                              test_campaign (aggregated I/O, checkpoint
#                              restart, a rerun in a used workdir),
#                              test_faults and test_sim (the
#                              synthetic generator's pre-sized particle
#                              ranges, the PM path's masked CIC stencils,
#                              redistribute's indexed output and the
#                              overload's ghosts appended from the messages,
#                              DecompRanks.OverloadKeepsTheOrder) with
#                              -DCOSMO_ASAN=ON in build-asan/ and fails on
#                              any report.
#   Both lanes run the δ, k-space and halo-catalog goldens
#   (PmSolver.DepositMatchesGolden, DistFftGolden.ForwardMatchesGolden,
#   PerHaloFanout.CatalogMatchesGolden), each once while another thread
#   keeps dispatching on the pool. Each sanitizer lane builds its binaries
#   as one aggregate target, so they compile in parallel (JOBS, default
#   nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"

# Configures a sanitizer tree and builds the given test binaries as the one
# aggregate target `lane_tests` (tests/CMakeLists.txt), so make compiles
# them in parallel: naming them as separate targets would build them one
# after another behind the top-level Makefile's .NOTPARALLEL.
build_lane() {
  local build_dir="$1" sanitizer="$2"
  shift 2
  local IFS=';'
  cmake -B "$build_dir" -S "$repo_root" "-D$sanitizer=ON" \
    "-DCOSMO_LANE_TESTS=$*"
  cmake --build "$build_dir" --target lane_tests -j "$jobs"
}

if [[ "${1:-}" == "--tsan" ]]; then
  build_dir="${BUILD_DIR:-$repo_root/build-tsan}"
  tsan_tests=(test_dpp test_comm test_fft test_faults test_halo_parallel
    test_workflows test_campaign test_sim)
  build_lane "$build_dir" COSMO_TSAN "${tsan_tests[@]}"
  # TSAN_OPTIONS: any race is fatal (non-zero exit), second_deadlock_stack
  # makes lock-order reports actionable.
  for t in "${tsan_tests[@]}"; do
    TSAN_OPTIONS="halt_on_error=0 exitcode=66 second_deadlock_stack=1" \
      "$build_dir/tests/$t"
  done
  echo "TSan pass clean."
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  build_dir="${BUILD_DIR:-$repo_root/build-asan}"
  asan_tests=(test_dpp test_comm test_fft test_halo test_halo_parallel
    test_halo_shape test_robustness test_io test_campaign test_faults
    test_sim)
  build_lane "$build_dir" COSMO_ASAN "${asan_tests[@]}"
  for t in "${asan_tests[@]}"; do
    UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" "$build_dir/tests/$t"
  done
  echo "ASan+UBSan pass clean."
  exit 0
fi

build_dir="${BUILD_DIR:-$repo_root/build}"
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"

if [[ "${1:-}" == "--unit" ]]; then
  ctest --test-dir "$build_dir" -L unit --output-on-failure -j "$jobs"
else
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
fi
