#!/usr/bin/env bash
# hoptrain_smoke.sh — one path per job: hoptrain assembled from flags
# and hoptrain given the equivalent committed spec must print
# byte-identical output (both are the same scenario.Spec by the time
# anything runs; cmd/internal/specflag), and the same spec must run
# with -live on loopback TCP.
#
# Usage: scripts/hoptrain_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=examples/scenarios/smoke-ring4.json
# The flag spelling of $SPEC. -deadline 0 because the spec has none and
# hoptrain's built-in default does.
FLAGS=(-workload quadratic -graph ring -workers 4 -machines 1
    -maxig 3 -backup 1 -send-check -compress float32 -iters 60 -seed 7 -deadline 0)

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "building hoptrain" >&2
go build -o "$WORKDIR/hoptrain" ./cmd/hoptrain

"$WORKDIR/hoptrain" "${FLAGS[@]}" > "$WORKDIR/flags.out"
"$WORKDIR/hoptrain" -scenario "$SPEC" > "$WORKDIR/spec.out"
if ! diff -u "$WORKDIR/flags.out" "$WORKDIR/spec.out" >&2; then
    echo "FAIL: hoptrain ${FLAGS[*]} and hoptrain -scenario $SPEC print different output" >&2
    exit 1
fi
if ! grep -q "final eval loss" "$WORKDIR/spec.out"; then
    echo "FAIL: hoptrain printed no run summary" >&2
    cat "$WORKDIR/spec.out" >&2
    exit 1
fi

"$WORKDIR/hoptrain" -scenario "$SPEC" -live > "$WORKDIR/live.out"
if ! grep -q "read_errors=0 " "$WORKDIR/live.out"; then
    echo "FAIL: hoptrain -live on $SPEC did not finish with zero read errors" >&2
    cat "$WORKDIR/live.out" >&2
    exit 1
fi
echo "hoptrain smoke OK: flag mode == spec mode, -live ran" >&2
