#!/usr/bin/env bash
# product_coverage.sh [OUT_DIR] — which src/ functions does a product reach?
#
# Builds the repository with its unit tests switched off, and perfbench/
# against it, each with gcov instrumentation into its own tree under
# OUT_DIR (default: build-product-coverage/ at the repository root).  Then
# it drives every product, and nothing else:
#   * the CI workflow's sma_cli smokes, `cmp` checks included, plus the
#     CLI smoke commands of tests/CMakeLists.txt;
#   * a plain sma_serve with per-tenant rate limiting and a chaos one,
#     each answering a TRACK, a 4-frame SEQ session and a STATS request
#     from sma_client;
#   * every example;
#   * every bench binary: the google-benchmark ones at
#     --benchmark_min_time=0.001, bench_serve_load for 5 s, and those
#     that take --json writing their BENCH record;
#   * each perfbench workload: --phase prepare, then 2 s of --phase run.
# scripts/product_coverage.py sums gcov's per-function counts over both
# trees, prints every src/ function that no product executed, and exits 1
# when a src/ .cpp other than a per-ISA kernel (core/match_vector_<isa>.cpp)
# has no executed function at all: a module only its own unit test
# reaches.  A driven command that fails is reported and the run goes on;
# the script then exits 2 after the report.
#
# Why -fno-early-inlining: in a plain Release --coverage build GCC's early
# inliner folds small callees into their callers before the counters are
# placed.  Run on hurricane_stereo_tracking, such a build reads
# gaussian_radius as never called while its only caller, gaussian_blur,
# reads 3 calls; with the flag both read 3.  -fno-inline also fixes the
# counts, but makes the drive many times slower.
#
# Needs cmake, a C++20 compiler with gcov, GoogleTest and Google Benchmark
# (as the main build does) and python3.  On a 4-core x86-64 host a run
# from scratch took about 2 minutes to build both trees and 5 to drive.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build-product-coverage}
mkdir -p "$out"
out=$(cd "$out" && pwd)
tree=$out/sma
pbtree=$out/perfbench
work=$out/work
jobs=$(nproc)

# Start from zero counts: a second run must not add to the first.
find "$out" -name '*.gcda' -delete 2>/dev/null || true
rm -rf "$work"
mkdir -p "$work"

# quietly LOG CMD... — a build step; its output is shown only on failure.
quietly() {
  local log=$1
  shift
  if ! "$@" > "$log" 2>&1; then
    tail -n 40 "$log"
    echo "failed: $*" >&2
    exit 1
  fi
}

flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining"
       -DCMAKE_EXE_LINKER_FLAGS=--coverage
       -DSMA_BUILD_TESTS=OFF)
echo "building instrumented trees under $out"
quietly "$out/configure.log" cmake -S "$root" -B "$tree" "${flags[@]}"
quietly "$out/build.log" cmake --build "$tree" -j"$jobs"
quietly "$out/configure-perfbench.log" \
  cmake -S "$root/perfbench" -B "$pbtree" "${flags[@]}"
quietly "$out/build-perfbench.log" cmake --build "$pbtree" -j"$jobs"

cli=$tree/examples/sma_cli
serve=$tree/src/tools/sma_serve
client=$tree/src/tools/sma_client

failures=()
# run CMD... — run one driven command; a failure is recorded, not fatal.
run() {
  echo "+ $*" >> "$work/drive.log"
  if ! "$@" >> "$work/drive.log" 2>&1; then
    failures+=("$*")
  fi
}

daemon_pid=
daemon_port=
stop_daemon() {
  if [ -n "$daemon_pid" ]; then
    kill -TERM "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" || failures+=("sma_serve drain (pid $daemon_pid)")
    daemon_pid=
  fi
}
trap stop_daemon EXIT

# start_daemon LOG ARGS... — sma_serve on an ephemeral port.
start_daemon() {
  local log=$1
  shift
  "$serve" --port 0 --workers 2 "$@" > "$log" 2>&1 &
  daemon_pid=$!
  daemon_port=
  for _ in $(seq 200); do
    daemon_port=$(sed -n 's/^sma_serve listening on .*:\([0-9][0-9]*\) .*/\1/p' \
      "$log")
    [ -n "$daemon_port" ] && return 0
    sleep 0.05
  done
  echo "sma_serve did not start; see $log" >&2
  exit 1
}

cd "$work"
echo "driving products (log: $work/drive.log)"

# --- sma_cli: the CI smokes.
run "$cli" synth ci
pair=(ci_before.pgm ci_after.pgm)
run "$cli" track "${pair[@]}" flow_seq.txt --backend sequential
run "$cli" track "${pair[@]}" flow_mp.txt --backend maspar-sim
run cmp flow_seq.txt flow_mp.txt
run "$cli" track "${pair[@]}" flow_vec.txt --backend vector
run cmp flow_seq.txt flow_vec.txt
run "$cli" track "${pair[@]}" flow_vec_narrow.txt --backend vector --tile 5x3
run cmp flow_seq.txt flow_vec_narrow.txt
run "$cli" track "${pair[@]}" flow_seq_cont.txt --model cont \
  --backend sequential
run "$cli" track "${pair[@]}" flow_vec_cont_narrow.txt --model cont \
  --backend vector --tile 5x3
run cmp flow_seq_cont.txt flow_vec_cont_narrow.txt
run env SMA_THREADS=4 "$cli" track "${pair[@]}" flow_vec4.txt --backend vector
run cmp flow_seq.txt flow_vec4.txt
for model in cont semi; do
  run env SMA_SIMD_LEVEL=scalar "$cli" track "${pair[@]}" \
    flow_scalar_$model.txt --model $model --backend vector
  run "$cli" track "${pair[@]}" flow_native_$model.txt --model $model \
    --backend vector
  run cmp flow_native_$model.txt flow_scalar_$model.txt
done
# The shard and pruned legs also export their counters with --metrics.
run "$cli" track "${pair[@]}" flow_shard.txt --backend sequential \
  --shard 2x2 --max-resident-mb 64 --metrics shard_metrics.csv
run cmp flow_seq.txt flow_shard.txt
for backend in sequential vector maspar-sim; do
  run "$cli" track "${pair[@]}" flow_pruned_$backend.txt --model cont \
    --search-mode pruned --backend $backend \
    --metrics pruned_${backend}_metrics.csv
  run cmp flow_pruned_sequential.txt flow_pruned_$backend.txt
done
run env SMA_THREADS=4 "$cli" track "${pair[@]}" flow_pruned_vec4.txt \
  --model cont --search-mode pruned --backend vector
run cmp flow_pruned_sequential.txt flow_pruned_vec4.txt
run "$cli" track "${pair[@]}" flow_pruned_shard.txt --model cont \
  --search-mode pruned --backend vector --shard 2x2 --max-resident-mb 64
run cmp flow_pruned_vector.txt flow_pruned_shard.txt
run "$cli" track "${pair[@]}" flow_pruned_semi.txt --model semi \
  --search-mode pruned --backend vector
run "$cli" track "${pair[@]}" flow_pruned_semi_off.txt --model semi \
  --search-mode pruned --backend sequential --precompute off
run cmp flow_pruned_semi.txt flow_pruned_semi_off.txt
run "$cli" track "${pair[@]}" flow_pruned_fault_seq.txt --search-mode pruned \
  --backend sequential --inject-faults 0.02
run "$cli" track "${pair[@]}" flow_pruned_fault_vec.txt --search-mode pruned \
  --backend vector --inject-faults 0.02
run cmp flow_pruned_fault_seq.txt flow_pruned_fault_vec.txt
run "$cli" track "${pair[@]}" flow_full.txt --model cont --search-mode full \
  --backend vector
run "$cli" track "${pair[@]}" flow_obs.txt --model cont --search 2 \
  --template 2 --trace ci_trace.json --metrics ci_metrics.csv
# The ctest CLI smokes: sub-pixel, robust, PPM, stereo, faults on MP-2.
run "$cli" track "${pair[@]}" flow_smoke.txt --model semi --search 3 \
  --subpixel --robust --ppm flow_smoke.ppm
run "$cli" stereo ci_before.pgm ci_before.pgm disp.pfm --levels 2
run "$cli" track "${pair[@]}" flow_obs_mp.txt --model cont --search 2 \
  --template 2 --backend maspar-sim --inject-faults 0.02 \
  --trace obs_mp_trace.json --metrics obs_mp_metrics.csv

# --- sma_serve / sma_client: a rate-limited and a chaos daemon.
run "$cli" synth serve --frames 4
frames=(serve_f0.pgm serve_f1.pgm serve_f2.pgm serve_f3.pgm)
run "$cli" track serve_before.pgm serve_after.pgm flow_direct.txt
run "$cli" track serve_before.pgm serve_after.pgm flow_direct_pruned.txt \
  --search-mode pruned
run "$cli" sequence seq_ref "${frames[@]}"
# A rate generous enough that nothing is rejected still runs every
# admission through the tenant's token bucket.
start_daemon serve.log --metrics serve_metrics.csv --rate 100 --burst 100
run "$client" ping --port "$daemon_port"
run "$client" track serve_before.pgm serve_after.pgm flow_served.txt \
  --port "$daemon_port"
run cmp flow_direct.txt flow_served.txt
run "$client" track serve_before.pgm serve_after.pgm flow_served_pruned.txt \
  --port "$daemon_port" --search-mode pruned
run cmp flow_direct_pruned.txt flow_served_pruned.txt
run "$client" seq seq_served "${frames[@]}" --port "$daemon_port"
for p in 1 2 3; do run cmp seq_ref_p$p.txt seq_served_p$p.txt; done
run "$client" stats --port "$daemon_port"
stop_daemon
start_daemon chaos.log --chaos --chaos-seed 7 --chaos-frame-fault-rate 1
run "$client" track serve_before.pgm serve_after.pgm flow_chaos.txt \
  --port "$daemon_port" --id 11
run "$client" seq seq_chaos "${frames[@]}" --port "$daemon_port"
run "$client" stats --port "$daemon_port"
stop_daemon

# --- Examples (sma_cli was driven above).
for example in "$tree"/examples/*; do
  [ -f "$example" ] && [ -x "$example" ] || continue
  [ "$(basename "$example")" = sma_cli ] && continue
  run "$example"
done

# --- Bench binaries.  Those with a --json flag write their BENCH record,
# as scripts/run_benches.sh has them do.
for bench in "$tree"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  args=()
  if grep -q '"--json"' "$root/bench/$name.cpp"; then
    args+=(--json "$work/$name.json")
  fi
  if [ "$name" = bench_serve_load ]; then
    args+=(--duration-ms 5000)
  elif grep -q 'BENCHMARK(' "$root/bench/$name.cpp"; then
    args+=(--benchmark_min_time=0.001)
  fi
  run "$bench" "${args[@]}"
done

# --- perfbench: each workload's prepare and 2 s of its measured run,
# at the measured run's two threads (perfbench/run.py).
for workload in semi_pair rapidscan_session outofcore_shard; do
  dir=$work/perfbench-$workload
  mkdir -p "$dir"
  run "$pbtree/perfbench_e2e" --phase prepare --workload $workload --seed 1 \
    --dir "$dir"
  run env SMA_THREADS=2 OMP_NUM_THREADS=2 "$pbtree/perfbench_e2e" \
    --phase run --workload $workload --seed 1 --dir "$dir" --seconds 2
done

cd "$root"
status=0
python3 "$root/scripts/product_coverage.py" --root "$root" "$tree" "$pbtree" \
  || status=$?
if [ ${#failures[@]} -gt 0 ]; then
  echo
  echo "driven commands that failed (output in $work/drive.log):"
  printf '  %s\n' "${failures[@]}"
  [ "$status" -eq 0 ] && status=2
fi
exit "$status"
