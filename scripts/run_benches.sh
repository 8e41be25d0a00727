#!/usr/bin/env bash
# run_benches.sh — run the machine-readable benchmark set and refresh the
# JSON artifacts at the repo root.  BENCH_*.json is COMMITTED (see
# README.md "Benchmark artifacts"): rerun this script and include the
# refreshed files whenever a change moves the numbers.
#
# Measurement hygiene:
#   * Thread pinning is PER LEG, not global.  The matching-kernel
#     micro-bench is pinned to one thread (SMA_THREADS=1): it compares
#     per-variant kernel cycle costs and asserts bit-identity between
#     variants, so background pool workers would only add timing noise
#     to its min-of-N runs.
#     The table2 leg must NOT be pinned — it owns the 1..N thread-scaling
#     sweep (resizing the shared scheduler pool itself) and its
#     FlowField determinism contract holds at every thread count, so a
#     global single-thread pin would silently flatten the efficiency
#     curve to one point.  The serve load bench likewise runs unpinned:
#     it measures the daemon under real worker/scheduler concurrency.
#     Whatever pinning applies is stamped into each artifact's
#     `environment` record (sched_threads / sma_threads_env) along with
#     compiler, build flags and the active SIMD level.
#   * Each bench variant performs one untimed warm-up pass and reports
#     the min of --repeat timed runs (default 3).
#
# Usage: scripts/run_benches.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

repeat="${SMA_BENCH_REPEAT:-5}"

if [[ ! -x "$build_dir/bench/bench_matching_kernel" ]]; then
  echo "error: $build_dir/bench/bench_matching_kernel not built" >&2
  echo "       (configure with -DSMA_BUILD_BENCH=ON and build first)" >&2
  exit 1
fi

echo "benches: repeat=$repeat (matching-kernel leg pinned to 1 thread)"

# Bit-identity/comparability-sensitive leg: single-kernel costs, pinned.
SMA_THREADS=1 \
  "$build_dir/bench/bench_matching_kernel" \
  --repeat "$repeat" \
  --json "$repo_root/BENCH_matching.json"
# Thread-scaling leg: manages its own pool width, must stay unpinned.
"$build_dir/bench/bench_table2_frederic" \
  --json "$repo_root/BENCH_table2.json"
# Serve load leg: measures real worker/scheduler concurrency, unpinned.
"$build_dir/bench/bench_serve_load" \
  --json "$repo_root/BENCH_serve.json"
# Shard leg: per-tile spans feed the modeled cluster replay, and the
# tile backend is the sequential tracker, so pin for clean span timings.
SMA_THREADS=1 \
  "$build_dir/bench/bench_shard" \
  --repeat "$repeat" \
  --json "$repo_root/BENCH_shard.json"

echo "bench artifacts:"
ls -l "$repo_root"/BENCH_*.json
