#!/usr/bin/env bash
# bench_scale.sh — run the cluster-scaling benchmark trajectory
# (steps/s at n ∈ {8, 64, 256, 1024, 4096} workers for the flat ring vs
# the hierarchical all-reduce topology, plus the simulator's two
# inner-loop costs: one kernel context switch and one update-queue
# enqueue/dequeue round) and write BENCH_scale.json in the same
# hop-bench/v1 schema as BENCH_gemm.json / BENCH_live.json. See
# BENCH.md.
#
# Usage:
#   scripts/bench_scale.sh
#   BENCH_SCALE_OUT=custom.json BENCH_SCALE_TIME=3x scripts/bench_scale.sh
#
# Knobs:
#   BENCH_SCALE_OUT      output file            (default BENCH_scale.json)
#   BENCH_SCALE_TIME     go -benchtime per point (default 2x; each op is
#                        one full 30-iteration simulated run)
#   BENCH_SCALE_PATTERN  bench regexp of the steps/s points
#                        (default BenchmarkScale)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_SCALE_OUT:-BENCH_scale.json}"
BENCHTIME="${BENCH_SCALE_TIME:-2x}"
PATTERN="${BENCH_SCALE_PATTERN:-BenchmarkScale}"

. scripts/bench_json.sh

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running: go test -run '^$' -bench '$PATTERN' -benchtime=$BENCHTIME ./" >&2
go test -run '^$' -bench "$PATTERN" -benchtime="$BENCHTIME" -count=1 ./ | tee "$RAW" >&2
# The inner-loop costs run at go's default time-based benchtime: an Nx
# count sized for whole simulated runs means nothing for a 100 ns op.
MICRO='^Benchmark(SimContextSwitch|UpdateQueueEnqueueDequeue)$'
echo "running: go test -run '^$' -bench '$MICRO' -benchmem ./" >&2
go test -run '^$' -bench "$MICRO" -benchmem -count=1 ./ | tee -a "$RAW" >&2
bench_to_json "$RAW" "$OUT"
echo "wrote $OUT" >&2
