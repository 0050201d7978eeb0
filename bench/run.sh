#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command.  Everything it and the Go toolchain write stays
# inside the checkout: the binary and the build cache under .bench_build/,
# traces and scratch data under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -o "$build/gridbench" .
exec "$build/gridbench" "$@"
