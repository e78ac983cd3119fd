#!/usr/bin/env bash
# live_smoke.sh — loopback cluster smoke test: N hopnode processes on
# 127.0.0.1, all driven by one committed scenario spec, exactly as a
# real multi-machine deployment would be (one process per worker,
# explicit peer list). Asserts every worker exits cleanly without
# falling back on the -linger timeout, reports a converged final
# training loss, and drops no inbound connections.
#
# Kill-and-rejoin mode (SMOKE_KILL_WORKER set): after SMOKE_KILL_AFTER
# seconds one worker is killed with SIGKILL — a real process death, no
# goodbye — and relaunched SMOKE_REJOIN_AFTER seconds later with
# -rejoin. The spec must enable the fault axis ("fault": {}) so the
# survivors reform the iteration graph instead of wedging. Survivors
# see the abrupt FIN as read errors, so SMOKE_ALLOW_READERRS=1 is
# implied.
#
# The spec picks the protocol: smoke-ring4.json drives Hop gossip,
# smoke-prague4.json the Prague partial all-reduce (same assertions —
# the protocols share the whole wire and drain machinery).
#
# Usage:
#   scripts/live_smoke.sh
#   SMOKE_SPEC=path.json SMOKE_PORT_BASE=29800 scripts/live_smoke.sh
#   SMOKE_SPEC=examples/scenarios/smoke-ring4-kill.json \
#     SMOKE_KILL_WORKER=3 scripts/live_smoke.sh
#   SMOKE_SPEC=examples/scenarios/smoke-prague4.json \
#     SMOKE_PORT_BASE=29900 scripts/live_smoke.sh
#   SMOKE_SPEC=examples/scenarios/smoke-ring4-topk.json \
#     SMOKE_LOSS_MAX=0.6 scripts/live_smoke.sh   # svm's loss settles near 0.55

set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${SMOKE_SPEC:-examples/scenarios/smoke-ring4.json}"
PORT_BASE="${SMOKE_PORT_BASE:-29750}"
N="${SMOKE_WORKERS:-4}"
LOSS_MAX="${SMOKE_LOSS_MAX:-0.5}"
# Watchdog: hard wall-clock bound on the whole cluster run. A wedged
# worker (the failure mode this guards against) otherwise blocks the
# plain `wait` forever.
TIMEOUT="${SMOKE_TIMEOUT:-180}"
KILL_WORKER="${SMOKE_KILL_WORKER:-}"
KILL_AFTER="${SMOKE_KILL_AFTER:-3}"
REJOIN_AFTER="${SMOKE_REJOIN_AFTER:-2}"
ALLOW_READERRS="${SMOKE_ALLOW_READERRS:-0}"
# Chaos runs (a spec with a fault.net clause) legitimately corrupt and
# drop frames; everything else must keep those counters at exactly
# zero — CRC drops on a clean loopback wire mean a framing bug.
ALLOW_CHAOS="${SMOKE_ALLOW_CHAOS:-0}"
if [ -n "$KILL_WORKER" ]; then
    ALLOW_READERRS=1
fi

WORKDIR="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

dump_logs() {
    # The per-worker counters first, for diagnosing a failed run at a
    # glance before wading into the full logs.
    echo "--- counters ---" >&2
    grep -hE "wire:|protocol:" "$WORKDIR"/worker*.log >&2 || true
    echo "--- worker logs ---" >&2
    cat "$WORKDIR"/worker*.log >&2
}

counter() { # counter <log> <name-regex>: sum of the matching name=value pairs on the last wire: line
    awk -v re="^($2)=" '/ wire: / { line = $0 }
        END { n = split(line, f, " "); v = ""; for (i = 1; i <= n; i++) if (f[i] ~ re) { sub(/.*=/, "", f[i]); v += f[i] } print v }' "$1"
}

echo "building hopnode" >&2
go build -o "$WORKDIR/hopnode" ./cmd/hopnode

PEERS=""
for i in $(seq 0 $((N - 1))); do
    PEERS="${PEERS}${PEERS:+,}$i=127.0.0.1:$((PORT_BASE + i))"
done

echo "launching $N workers from $SPEC (peers $PEERS)" >&2
pids=()
for i in $(seq 0 $((N - 1))); do
    "$WORKDIR/hopnode" -scenario "$SPEC" -id "$i" \
        -listen "127.0.0.1:$((PORT_BASE + i))" -peers "$PEERS" \
        > "$WORKDIR/worker$i.log" 2>&1 &
    pids+=($!)
done

if [ -n "$KILL_WORKER" ]; then
    sleep "$KILL_AFTER"
    victim=${pids[$KILL_WORKER]}
    echo "killing worker $KILL_WORKER (pid $victim) with SIGKILL" >&2
    kill -9 "$victim" 2>/dev/null || true
    sleep "$REJOIN_AFTER"
    echo "relaunching worker $KILL_WORKER with -rejoin" >&2
    "$WORKDIR/hopnode" -scenario "$SPEC" -id "$KILL_WORKER" -rejoin \
        -listen "127.0.0.1:$((PORT_BASE + KILL_WORKER))" -peers "$PEERS" \
        > "$WORKDIR/worker$KILL_WORKER.rejoin.log" 2>&1 &
    pids[KILL_WORKER]=$!
fi

# Watchdog wait: poll the workers against the deadline instead of
# blocking in `wait`, so a wedged worker fails the run with its logs
# dumped rather than hanging the harness.
deadline=$((SECONDS + TIMEOUT))
while :; do
    alive=0
    for pid in "${pids[@]}"; do
        if kill -0 "$pid" 2>/dev/null; then
            alive=1
        fi
    done
    [ "$alive" = 0 ] && break
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: workers still running after ${TIMEOUT}s watchdog timeout" >&2
        dump_logs
        exit 1
    fi
    sleep 1
done

fail=0
for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
        echo "FAIL: worker $i exited non-zero" >&2
        fail=1
    fi
done

# A finished worker leaves once every peer has said goodbye
# (live.Worker.Finish); reaching the -linger timeout instead means a
# goodbye never came, in any mode, the rejoined run included.
for log in "$WORKDIR"/worker*.log; do
    if grep -q "neighbors still running after" "$log"; then
        echo "FAIL: $(basename "$log" .log) gave up waiting for its peers after the linger timeout" >&2
        fail=1
    fi
done

check_loss() { # check_loss <worker> <log>
    local i="$1" log="$2" loss ok
    if ! grep -q "finished" "$log"; then
        echo "FAIL: worker $i never finished ($log)" >&2
        fail=1
        return
    fi
    # Last match wins (a rejoined worker logs twice); anything
    # non-numeric — including an empty match — fails hard instead of
    # coercing to 0 and passing vacuously.
    loss=$(awk '/final train loss/ { v = $NF } END { print v }' "$log")
    case "$loss" in
        '' | *[!0-9.eE+-]*)
            echo "FAIL: worker $i final train loss unparseable: '$loss' ($log)" >&2
            fail=1
            return
            ;;
    esac
    ok=$(awk -v l="$loss" -v max="$LOSS_MAX" 'BEGIN { print (l + 0 <= max + 0) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: worker $i final train loss $loss > $LOSS_MAX" >&2
        fail=1
    fi
}

for i in $(seq 0 $((N - 1))); do
    log="$WORKDIR/worker$i.log"
    if [ -n "$KILL_WORKER" ] && [ "$i" = "$KILL_WORKER" ]; then
        # The victim's first life ends in SIGKILL; the rejoined run must
        # finish and converge.
        check_loss "$i" "$WORKDIR/worker$i.rejoin.log"
        continue
    fi
    check_loss "$i" "$log"
    readerrs=$(counter "$log" read_errors)
    if [ "$ALLOW_READERRS" != 1 ] && [ "${readerrs:-missing}" != 0 ]; then
        echo "FAIL: worker $i read errors: ${readerrs:-missing}" >&2
        fail=1
    fi
    if [ "$ALLOW_CHAOS" != 1 ]; then
        corrupt=$(counter "$log" corrupt_frames)
        if [ "${corrupt:-missing}" != 0 ]; then
            echo "FAIL: worker $i corrupt frames in a non-chaos run: ${corrupt:-missing}" >&2
            fail=1
        fi
        chaos_total=$(counter "$log" 'chaos_[a-z]+')
        if [ "${chaos_total:-missing}" != 0 ]; then
            echo "FAIL: worker $i chaos injector fired in a non-chaos run (total ${chaos_total:-missing})" >&2
            fail=1
        fi
    fi
done

if [ "$fail" != 0 ]; then
    dump_logs
    exit 1
fi
if [ -n "$KILL_WORKER" ]; then
    echo "live smoke OK: worker $KILL_WORKER killed and rejoined, cluster converged" >&2
else
    echo "live smoke OK: $N workers converged, zero read errors" >&2
fi
