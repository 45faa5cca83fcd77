#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given, from the
# root of a checkout: bash benchmark/run.sh --workload sim-codec --seed 1
# --seconds 10 --trace 0. Everything the build writes, Go's build cache
# included, goes to .bench_build in the checkout; the benchmark replaces
# this shell, so no other process is left to stop.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
cd "$here"
go build -o "$build/fedbench" .
exec "$build/fedbench" "$@"
