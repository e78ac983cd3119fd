#!/usr/bin/env bash
# bench.sh — run the benchmark trajectory and write the
# machine-readable result files (BENCH_gemm.json for the compute
# plane, BENCH_live.json for the live loopback wire plane,
# BENCH_e2e.json for the CNN workload end to end). See BENCH.md.
#
# Usage:
#   scripts/bench.sh                 # GEMM + codec micro -> BENCH_gemm.json,
#                                    # live loopback      -> BENCH_live.json,
#                                    # CNN end to end     -> BENCH_e2e.json
#   scripts/bench.sh --figures       # also smoke the figure benchmarks (benchtime=1x)
#   BENCH_OUT=custom.json BENCH_LIVE_OUT=live.json BENCH_E2E_OUT=e2e.json scripts/bench.sh
#
# Each JSON is a flat array of {bench, ns_per_op, allocs_per_op,
# bytes_per_op, mb_per_s, extra{...}} objects plus a header record with
# host metadata, so successive runs can be diffed or plotted as a
# trajectory. Custom go-bench metrics (updates/s, wireB/update, ...)
# land in extra{}.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_gemm.json}"
BENCHTIME="${BENCH_TIME:-200x}"
PATTERN="${BENCH_PATTERN:-Gemm|Axpy|Gather|Delta|WireCompress|WireDecode}"
LIVE_OUT="${BENCH_LIVE_OUT:-BENCH_live.json}"
LIVE_BENCHTIME="${BENCH_LIVE_TIME:-3x}"
LIVE_PATTERN="${BENCH_LIVE_PATTERN:-LiveLoopback}"
# The 16-worker CNN workload end to end at width=1|2|4 — whole gradient
# steps overlapping — then one replica's step alone and the eval-batch
# forward pass the scheduling plane runs inline. One op of the first is
# a full 4800-step run; one of either of the other two is under a
# millisecond.
E2E_OUT="${BENCH_E2E_OUT:-BENCH_e2e.json}"
E2E_BENCHTIME="${BENCH_E2E_TIME:-3x}"
E2E_STEP_BENCHTIME="${BENCH_E2E_STEP_TIME:-3000x}"

# bench_to_json lives in bench_json.sh, shared with bench_scale.sh.
# (We already cd'ed to the repo root above.)
. scripts/bench_json.sh

RAW="$(mktemp)"
LIVE_RAW="$(mktemp)"
E2E_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$LIVE_RAW" "$E2E_RAW"' EXIT

echo "running: go test -run '^$' -bench '$PATTERN' -benchmem -benchtime=$BENCHTIME ./ ./internal/tensor/" >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime="$BENCHTIME" -count=1 ./ ./internal/tensor/ | tee "$RAW" >&2
bench_to_json "$RAW" "$OUT"
echo "wrote $OUT" >&2

echo "running: go test -run '^$' -bench '$LIVE_PATTERN' -benchtime=$LIVE_BENCHTIME ./" >&2
go test -run '^$' -bench "$LIVE_PATTERN" -benchtime="$LIVE_BENCHTIME" -count=1 ./ | tee "$LIVE_RAW" >&2
# The microbenchmarks the live plane's budget names (DESIGN.md §9.4)
# ride in the same file at their own iteration count: one op is tens of
# microseconds, not a cluster run: an iteration's draw, gradient, SGD
# step and Reduce (TensorMean, at the ring's and the CNN's shapes), and
# the wire's own. TopKStreamEncode is here and not in
# the codec rows above because its width=2 rows need the second CPU
# this file is recorded with.
echo "running: go test -run '^$' -bench 'WebspamSample|SVMLossGrad|SGDStep|TensorMean|TransportTokenThenUpdate|TopKStreamEncode' -benchmem -benchtime=20000x ./" >&2
go test -run '^$' -bench 'WebspamSample|SVMLossGrad|SGDStep|TensorMean|TransportTokenThenUpdate|TopKStreamEncode' -benchmem -benchtime=20000x -count=1 ./ | tee -a "$LIVE_RAW" >&2
bench_to_json "$LIVE_RAW" "$LIVE_OUT"
echo "wrote $LIVE_OUT" >&2

echo "running: go test -run '^$' -bench 'SimCNNHetero16' -benchtime=$E2E_BENCHTIME ./" >&2
go test -run '^$' -bench 'SimCNNHetero16' -benchtime="$E2E_BENCHTIME" -count=1 ./ | tee "$E2E_RAW" >&2
echo "running: go test -run '^$' -bench 'CNNLossGrad|CNNEvalLoss' -benchmem -benchtime=$E2E_STEP_BENCHTIME ./" >&2
go test -run '^$' -bench 'CNNLossGrad|CNNEvalLoss' -benchmem -benchtime="$E2E_STEP_BENCHTIME" -count=1 ./ | tee -a "$E2E_RAW" >&2
bench_to_json "$E2E_RAW" "$E2E_OUT"
echo "wrote $E2E_OUT" >&2

if [ "${1:-}" = "--figures" ]; then
    echo "running figure smoke benchmarks (one full reproduction each)" >&2
    go test -run '^$' -bench 'Fig12|Fig14|Table1' -benchtime=1x -count=1 ./ >&2
fi
