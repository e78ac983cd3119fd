#!/usr/bin/env bash
# coverage_gate.sh — fail CI when statement coverage of the gated
# packages regresses below the committed baselines.
#
# The gate measures *cross-package* coverage: internal/core is mostly
# exercised through internal/cluster, internal/scenario and
# internal/live, so the whole test suite runs once with the gated
# packages instrumented (-coverpkg), and per-package totals are
# computed from the merged profile. Baselines sit a few points below
# the measured values (core 88.6%, scenario 90.5% when the gate was
# introduced; core 93.6% when every protocol wait became one loop, its
# floor two points under) so routine churn passes while a real
# regression — e.g. a new subsystem landing untested — fails.
#
# Usage: scripts/coverage_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# package path prefix (as it appears in the profile) → minimum %.
GATES=(
    "hop/internal/core/:91.6"
    "hop/internal/scenario/:87.0"
    "hop/internal/graph/:85.0"
    "hop/internal/netsim/:80.0"
)

profile=$(mktemp)
trap 'rm -f "$profile"' EXIT

echo "coverage gate: running suite with instrumented packages..."
go test -count=1 -coverpkg=./internal/core,./internal/scenario,./internal/graph,./internal/netsim \
    -coverprofile="$profile" ./... > /dev/null

fail=0
for gate in "${GATES[@]}"; do
    prefix=${gate%:*}
    min=${gate##*:}
    # Profile lines: <file>:<range> <numStmts> <hitCount>. Duplicate
    # blocks (one per test binary) are deduplicated by block key; a
    # block is covered when any run hit it.
    pct=$(awk -v prefix="$prefix" 'NR > 1 && index($1, prefix) == 1 {
        n[$1] = $2
        if ($3 > 0) hit[$1] = 1
    } END {
        total = cov = 0
        for (k in n) { total += n[k]; if (k in hit) cov += n[k] }
        if (total == 0) { print "0.0"; exit }
        printf "%.1f", 100 * cov / total
    }' "$profile")
    ok=$(awk -v p="$pct" -v m="$min" 'BEGIN { print (p >= m) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "coverage gate: $prefix $pct% (>= $min%) ok"
    else
        echo "coverage gate: $prefix $pct% BELOW baseline $min%" >&2
        fail=1
    fi
done
exit $fail
