#!/usr/bin/env bash
# loaded_test.sh — the live suites under CPU load.
#
# Runs `go test -count=1 ./internal/live ./internal/scenario` N times
# beside k busy-loop shells, so a test that takes its timing margin from
# the host's idle cores fails here and not only on a busy CI runner. The
# script starts the loops itself and kills them when it exits; it
# changes no machine setting (no priorities, cgroups or CPU governors).
# k is capped at 4.
#
# The whole output of every failing run is kept, one file per run, in
# $LOADED_OUT (default: a new directory under $TMPDIR), so the panic of
# a package timeout — which lists the tests still running — is never
# cut. Passing runs leave nothing behind.
#
# Usage: scripts/loaded_test.sh [N [k]]    (defaults N=20, k=2)
# The last line reads "loaded: F of N runs failed (...)"; exits 1 if
# any run failed.

set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-20}
loops=${2:-2}
if ! [[ $runs =~ ^[0-9]+$ && $loops =~ ^[0-9]+$ ]] || [ "$runs" -lt 1 ] || [ "$loops" -gt 4 ]; then
    echo "usage: $0 [N >= 1 [k <= 4]]" >&2
    exit 2
fi
out=${LOADED_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/loaded.XXXXXX")}
mkdir -p "$out"
pkgs=(./internal/live ./internal/scenario)

# Build the test binaries once, unloaded, so the runs time tests, not
# the compiler.
go test -count=1 -run '^$' "${pkgs[@]}" >/dev/null

pids=()
trap 'kill ${pids[@]+"${pids[@]}"} 2>/dev/null || true' EXIT
for ((i = 0; i < loops; i++)); do
    (while :; do :; done) &
    pids+=($!)
done

failed=0
for ((r = 1; r <= runs; r++)); do
    log="$out/run$r.log"
    if go test -count=1 "${pkgs[@]}" >"$log" 2>&1; then
        rm -f "$log"
    else
        failed=$((failed + 1))
        first=$(grep -m1 -E -- '--- FAIL|^panic:' "$log" || echo "FAIL")
        echo "run $r failed ($first): $log"
    fi
done
echo "loaded: $failed of $runs runs failed ($loops busy loops, $(nproc) CPUs)"
[ "$failed" -eq 0 ]
