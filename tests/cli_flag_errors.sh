#!/usr/bin/env bash
# cli_flag_errors.sh CLI_DIR TOOLS_DIR — run from ctest against
# CLI_DIR/sma_cli and TOOLS_DIR/sma_serve, TOOLS_DIR/sma_client.
#
# A bad flag is a config error: each front end must exit with code 2 (the
# serve error taxonomy's "config", serve/error.hpp), never crash, report
# an internal error or go on with a value it made up. That covers a
# trailing flag that is missing its value, a name the flag does not
# accept (a backend the registry does not know, including the retired
# "openmp" and "tiled", the retired --precompute, --prune-bound and
# --sequential flags and sma_serve's retired --frame-cache, a model
# other than cont|semi) and
# a number that is not wholly a number (--search abc used to run a 1x1
# search, sma_serve --port abc used to listen on an ephemeral port), and
# a --threads pool width outside 1..4096, the range SMA_THREADS accepts
# (no valid large width is tried: it would start that many threads).
# Every leg runs under `timeout`, so a front end that starts work instead
# of rejecting its flags fails the leg rather than hanging the test.
set -u
cli_dir=$1
tools_dir=$2
cd "$cli_dir"
./sma_cli synth cli_flags > /dev/null || exit 1
status=0

# expect_config LABEL CMD... — CMD must exit 2 within 20 s.
expect_config() {
  local label=$1
  shift
  timeout 20 "$@" > /dev/null 2>&1
  local code=$?
  if [ "$code" -ne 2 ]; then
    echo "$label exited $code, want 2"
    status=1
  fi
}

for tail in --ppm --model --backend "--backend openmp" "--backend tiled" \
    "--precompute off" "--precompute on" "--search abc" "--search 3x" \
    "--model foo" \
    "--inject-faults abc" "--tile 8xq" "--prune-bound on" --sequential \
    "--threads 0" "--threads -1" "--threads 4097"; do
  # $tail is split on purpose: "--backend openmp" is a flag and a value.
  expect_config "sma_cli track ... $tail" ./sma_cli track \
    cli_flags_before.pgm cli_flags_after.pgm cli_flags_flow.txt $tail
done
expect_config "sma_serve --port abc" "$tools_dir/sma_serve" --port abc
expect_config "sma_serve --frame-cache 8" "$tools_dir/sma_serve" \
  --frame-cache 8
expect_config "sma_client ping --port 12x" "$tools_dir/sma_client" ping \
  --port 12x
exit $status
