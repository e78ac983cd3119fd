#!/usr/bin/env bash
# run.sh — the driver's entry point (BENCHMARK.json "command").
#
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, with the Go build cache kept there too so that nothing is
# read or written outside the checkout, then runs it with the driver's
# arguments (--workload, --seed, --seconds, --trace). Result and trace
# files go to benchmark/out/. For the whole suite, with its own flags,
# run `go run .` in this directory instead (see README.md).
#
# The module here requires the repository's root module through
# `replace hop => ../`: in a directory that holds only the benchmark the
# build fails and the script exits non-zero without printing a result.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hopbenchmark" .)
exec "$build/hopbenchmark" --out "$here/out" "$@"
