#!/usr/bin/env sh
# Regenerates every experiment of EXPERIMENTS.md: runs all bench binaries,
# captures their stdout under results/, and exports machine-readable CSV
# where a bench supports it.
#
#   ./scripts/run_experiments.sh [build-dir] [results-dir]
#   ./scripts/run_experiments.sh --sanitize
#
# --sanitize instead configures and builds the asan-ubsan and tsan
# presets (see CMakePresets.json) and runs the `faults`-, `audit`-,
# `durability`- and `engine`-labeled test subset under each — the
# fault-injection/recovery paths, the fast sequence engine and the
# machines' parallel compare-exchange kernels exercised with memory and
# data-race checking.

set -eu

if [ "${1:-}" = "--sanitize" ]; then
  status=0
  for preset in asan-ubsan tsan; do
    echo "== sanitizer preset: $preset"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset" -j "$(nproc)" || status=1
  done
  exit $status
fi

BUILD_DIR=${1:-build}
RESULTS_DIR=${2:-results}

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

mkdir -p "$RESULTS_DIR"
PRODSORT_CSV_DIR=$(cd "$RESULTS_DIR" && pwd)
export PRODSORT_CSV_DIR

status=0
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== $name"
  if ! "$bench" > "$RESULTS_DIR/$name.txt" 2>&1; then
    echo "   FAILED (see $RESULTS_DIR/$name.txt)" >&2
    status=1
  fi
done

echo
"$(dirname "$0")/collect_bench.sh" \
  -o "$RESULTS_DIR/BENCH_summary.json" "$RESULTS_DIR" || status=1

echo
echo "results in $RESULTS_DIR/ ($(ls "$RESULTS_DIR" | wc -l) files)"
exit $status
