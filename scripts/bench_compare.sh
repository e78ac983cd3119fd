#!/usr/bin/env bash
# bench_compare.sh — diff a fresh benchmark run against the committed
# baselines (BENCH_gemm.json / BENCH_live.json / BENCH_e2e.json /
# BENCH_scale.json at HEAD) and flag
# regressions beyond a threshold. Advisory by design: CI runs it with
# continue-on-error so noisy shared runners annotate rather than block.
#
# Higher-is-worse metric: ns_per_op. Lower-is-worse metrics: the
# extra.updates_s throughput reported by the live loopback benches and
# the extra.steps_s throughput of the cluster-scaling and width-axis
# benches.
#
# Knobs (see BENCH.md):
#   BENCH_COMPARE_THRESH  regression threshold in percent   (default 25)
#   BENCH_COMPARE_GEMM    pre-existing fresh gemm JSON; when unset a
#                         fresh run is taken via scripts/bench.sh
#   BENCH_COMPARE_LIVE    pre-existing fresh live JSON (ditto)
#   BENCH_COMPARE_E2E     pre-existing fresh width-axis JSON (ditto)
#   BENCH_COMPARE_SCALE   pre-existing fresh scale JSON; when unset a
#                         fresh run is taken via scripts/bench_scale.sh
#   BENCH_TIME / BENCH_LIVE_TIME / BENCH_E2E_TIME / BENCH_SCALE_TIME
#                         forwarded to the bench scripts for fresh runs
#
# Baselines come from `git show HEAD:<file>` so the comparison is
# against what is committed even after bench.sh has overwritten the
# working-tree copies; if git is unavailable the on-disk files are used.

set -euo pipefail
cd "$(dirname "$0")/.."

THRESH="${BENCH_COMPARE_THRESH:-25}"
FRESH_GEMM="${BENCH_COMPARE_GEMM:-}"
FRESH_LIVE="${BENCH_COMPARE_LIVE:-}"
FRESH_E2E="${BENCH_COMPARE_E2E:-}"
FRESH_SCALE="${BENCH_COMPARE_SCALE:-}"

TMPDIR_CMP="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_CMP"' EXIT

baseline() { # baseline FILE -> path of baseline copy
    local f="$1" out="$TMPDIR_CMP/base_$1"
    if git show "HEAD:$f" > "$out" 2>/dev/null; then
        echo "$out"
    else
        echo "$f"
    fi
}

if [ -z "$FRESH_GEMM" ] || [ -z "$FRESH_LIVE" ] || [ -z "$FRESH_E2E" ]; then
    FRESH_GEMM="$TMPDIR_CMP/fresh_gemm.json"
    FRESH_LIVE="$TMPDIR_CMP/fresh_live.json"
    FRESH_E2E="$TMPDIR_CMP/fresh_e2e.json"
    echo "bench_compare: taking a fresh run via scripts/bench.sh" >&2
    BENCH_OUT="$FRESH_GEMM" BENCH_LIVE_OUT="$FRESH_LIVE" BENCH_E2E_OUT="$FRESH_E2E" scripts/bench.sh >&2
fi
if [ -z "$FRESH_SCALE" ]; then
    FRESH_SCALE="$TMPDIR_CMP/fresh_scale.json"
    echo "bench_compare: taking a fresh scale run via scripts/bench_scale.sh" >&2
    BENCH_SCALE_OUT="$FRESH_SCALE" scripts/bench_scale.sh >&2
fi

BASE_GEMM="$(baseline BENCH_gemm.json)"
BASE_LIVE="$(baseline BENCH_live.json)"
BASE_E2E="$(baseline BENCH_e2e.json)"
BASE_SCALE="$(baseline BENCH_scale.json)"

python3 - "$THRESH" \
    "$BASE_GEMM" "$FRESH_GEMM" \
    "$BASE_LIVE" "$FRESH_LIVE" \
    "$BASE_E2E" "$FRESH_E2E" \
    "$BASE_SCALE" "$FRESH_SCALE" <<'EOF'
import json, sys

thresh = float(sys.argv[1]) / 100.0

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("kernels"), {r["bench"]: r for r in doc["results"]}

def pct(old, new):
    return 100.0 * (new - old) / old

regressions = []
for base_path, fresh_path in zip(sys.argv[2::2], sys.argv[3::2]):
    (base_k, base), (fresh_k, fresh) = load(base_path), load(fresh_path)
    if base_k != fresh_k:
        # A baseline recorded with other vector kernels (or before the
        # header named them) times other code paths.
        print(f"::warning::{fresh_path}: kernels {fresh_k or 'unrecorded'}, "
              f"baseline {base_k or 'unrecorded'}: compare with care")
    for name, b in sorted(base.items()):
        f = fresh.get(name)
        if f is None:
            print(f"::warning::{name}: present in baseline, missing from fresh run")
            continue
        # ns_per_op: higher is worse.
        if b.get("ns_per_op") and f.get("ns_per_op", 0) > b["ns_per_op"] * (1 + thresh):
            regressions.append(
                f"{name}: ns_per_op {b['ns_per_op']:.0f} -> {f['ns_per_op']:.0f} "
                f"({pct(b['ns_per_op'], f['ns_per_op']):+.1f}%)")
        # Throughput extras (live updates/s, scale steps/s): lower is
        # worse.
        for metric in ("updates/s", "steps/s"):
            bu = b.get("extra", {}).get(metric)
            fu = f.get("extra", {}).get(metric)
            if bu and fu is not None and fu < bu * (1 - thresh):
                regressions.append(
                    f"{name}: {metric} {bu:.0f} -> {fu:.0f} ({pct(bu, fu):+.1f}%)")
    for name in sorted(set(fresh) - set(base)):
        print(f"bench_compare: {name}: new point, no baseline")

if regressions:
    for r in regressions:
        print(f"::warning::bench regression >{thresh*100:.0f}%: {r}")
    sys.exit(1)
print(f"bench_compare: no regressions beyond {thresh*100:.0f}% threshold")
EOF
