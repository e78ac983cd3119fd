#!/usr/bin/env bash
# mutate.sh — a mutation audit: show that the tests can fail.
#
# Each row of the mutant list (default scripts/mutants.tsv) names a
# file, an exact old string, a new string and the claim the change
# attacks, separated by tabs; blank lines and lines starting with # are
# skipped. The old string must occur exactly once in the file. Rows are
# applied one at a time to a copy of the tracked tree under $TMPDIR.
# Each mutant runs `go test -short` over the mutated file's package plus
# the protocol's six packages (core, cluster, scenario, experiments,
# live and the root package) and prints one line — a test that hangs
# past the timeout (a mutant can wedge a live cluster) kills it too:
#
#   killed    <file>: <old> -> <new>  by <first failing test>
#   survived  <file>: <old> -> <new>  (<claim>)
#
# Usage: scripts/mutate.sh [list [row-regex]]
#   row-regex keeps only the rows whose line matches it (grep -E).
# Exits 1 if any mutant survived or any row does not apply.

set -euo pipefail
cd "$(dirname "$0")/.."

list=${1:-scripts/mutants.tsv}
filter=${2:-}
pkgs=(./internal/core ./internal/cluster ./internal/scenario ./internal/experiments ./internal/live .)

work=$(mktemp -d "${TMPDIR:-/tmp}/mutate.XXXXXX")
trap 'rm -rf "$work"' EXIT
git ls-files -z --cached --others --exclude-standard | xargs -0 cp --parents -t "$work"

killed=0 survived=0 bad=0
while IFS=$'\t' read -r file old new claim; do
    case "$file" in '' | '#'*) continue ;; esac
    if [ -n "$filter" ] && ! grep -qE -- "$filter" <<< "$file	$old	$new	$claim"; then
        continue
    fi
    row="$file: $old -> $new"
    if [ -z "$new" ] || [ -z "$claim" ] || [ ! -f "$work/$file" ]; then
        echo "bad       $row  (a row needs an existing file, old, new and claim)"
        bad=$((bad + 1))
        continue
    fi
    # Read the file whole, trailing newlines included.
    src=$(cat "$work/$file"; printf x)
    src=${src%x}
    rest=${src#*"$old"}
    if [ "$rest" = "$src" ] || [[ $rest == *"$old"* ]]; then
        echo "bad       $row  (old string does not occur exactly once)"
        bad=$((bad + 1))
        continue
    fi
    printf '%s' "${src/"$old"/"$new"}" > "$work/$file"
    pkg=./$(dirname "$file")
    [ "$pkg" = ./. ] && pkg=.
    if out=$(cd "$work" && go test -short -count=1 -timeout 120s "$pkg" "${pkgs[@]}" 2>&1); then
        echo "survived  $row  ($claim)"
        survived=$((survived + 1))
    elif grep -qE '\[(build|setup) failed\]' <<< "$out"; then
        echo "bad       $row  (does not build: $(grep -m1 -E '\.go:[0-9]+:' <<< "$out"))"
        bad=$((bad + 1))
    else
        first=$(grep -m1 -oE -- '--- FAIL: [^ ]+' <<< "$out" | sed 's/--- FAIL: //' || true)
        if [ -z "$first" ]; then
            # A timeout panic lists the tests it interrupted.
            first=$(grep -m1 -A2 -E '^panic: test timed out' <<< "$out" | tail -n 1 | tr -d '\t' || true)
            [ -n "$first" ] && first="a timeout in $first"
        fi
        [ -z "$first" ] && first=$(grep -m1 -E '^(panic:|FAIL)' <<< "$out" || true)
        echo "killed    $row  by $first"
        killed=$((killed + 1))
    fi
    printf '%s' "$src" > "$work/$file"
done < "$list"

echo "mutants: $killed killed, $survived survived, $bad bad rows"
[ "$survived" -eq 0 ] && [ "$bad" -eq 0 ]
