#!/usr/bin/env bash
# Benchmark runner: builds Release, runs the estimator-throughput bench, the
# wire-format throughput bench, the 64-session monitor scale bench, and the
# fleet sweep (1k/4k/10k remote sessions on one monitor, full-vs-delta
# transport), and collects each family's trailing "BENCH {...}" JSON lines
# into one JSON array per family.
#
#   $ scripts/bench.sh
#
# Output: BENCH_estimator.json, BENCH_remote.json, BENCH_monitor_scale.json
# and BENCH_bounds.json in the repo root (override the directory with
# BENCH_OUT_DIR). Build directory: build-bench (override with
# BENCH_BUILD_DIR). CI runs this as a non-gating artifact step — numbers are
# tracked, not asserted — but estimator_throughput exits non-zero if the
# stateless and incremental modes ever diverge, monitor_scale --sweep
# exits non-zero if a fleet run wedges, regresses per-session progress, or
# the delta transport falls under its 3x bytes-per-session reduction floor,
# table1_bounds exits non-zero on any bound-soundness violation, and
# bounds_tightness exits non-zero if intersecting LpBound with Appendix A
# inverts any interval or regresses Error_time; those correctness failures
# do gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"
OUT_DIR="${BENCH_OUT_DIR:-.}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target estimator_throughput wire_throughput monitor_scale \
  table1_bounds bounds_tightness

# run_family OUT_FILE BENCH...: runs each bench command, echoes its
# deterministic lines, and writes the "BENCH {...}" payloads to OUT_FILE.
run_family() {
  local out="$1"
  shift
  local lines=()
  for bench in "$@"; do
    echo "== $bench"
    # shellcheck disable=SC2086  # intentional word splitting for the args
    output="$(./$bench)"
    echo "$output" | grep -v '^BENCH '
    while IFS= read -r line; do
      lines+=("${line#BENCH }")
    done < <(echo "$output" | grep '^BENCH ')
  done
  {
    echo '['
    for i in "${!lines[@]}"; do
      if [ "$i" -lt $((${#lines[@]} - 1)) ]; then
        echo "  ${lines[$i]},"
      else
        echo "  ${lines[$i]}"
      fi
    done
    echo ']'
  } > "$out"
  echo "wrote $out (${#lines[@]} bench results)"
}

run_family "$OUT_DIR/BENCH_estimator.json" \
  "$BUILD_DIR/bench/estimator_throughput"

run_family "$OUT_DIR/BENCH_remote.json" \
  "$BUILD_DIR/bench/wire_throughput" \
  "$BUILD_DIR/bench/monitor_scale --threads=8 --sessions=64"

run_family "$OUT_DIR/BENCH_monitor_scale.json" \
  "$BUILD_DIR/bench/monitor_scale --sweep --threads=8"

run_family "$OUT_DIR/BENCH_bounds.json" \
  "$BUILD_DIR/bench/table1_bounds" \
  "$BUILD_DIR/bench/bounds_tightness"
