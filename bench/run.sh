#!/bin/bash
# Builds the harness and runs it with the arguments given, from the root of
# a checkout:  bash bench/run.sh --workload heavy_d4 --seed 1 --seconds 15 --trace 0
# The build cache, the toolchain's temporary files and the binary stay under
# .bench_build in the checkout, so a run writes nowhere else (the harness
# itself writes under bench/out). A GOCACHE already set is respected.
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
