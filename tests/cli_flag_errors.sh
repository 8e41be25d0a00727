#!/usr/bin/env bash
# cli_flag_errors.sh DIR — run from ctest against DIR/sma_cli.
#
# A bad flag is a config error: sma_cli must exit with code 2 (the serve
# error taxonomy's "config", serve/error.hpp), never crash or report an
# internal error, both for a trailing flag that is missing its value and
# for a backend name the registry does not know.
set -u
cd "$1"
./sma_cli synth cli_flags > /dev/null || exit 1
status=0
for tail in --ppm --model --backend "--backend openmp"; do
  # $tail is split on purpose: "--backend openmp" is a flag and a value.
  ./sma_cli track cli_flags_before.pgm cli_flags_after.pgm cli_flags_flow.txt \
    $tail > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "sma_cli track ... $tail exited $code, want 2"
    status=1
  fi
done
exit $status
