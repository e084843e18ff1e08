#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the build
# and the run leave behind stays under .bench_build/ in the current directory:
# the Go build cache, the binary, durable replicas' scratch data, traces.
#
#   bash benchmark/run.sh --workload raft-read --seed 1 --seconds 20 --trace 0
#
# `go run ./benchmark` does the same with the Go build cache in its usual place.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -o "$build/recipe-benchmark" ./benchmark
exec "$build/recipe-benchmark" "$@"
