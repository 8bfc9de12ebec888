#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout
# (.bench_build/, including the Go build cache) and run it from the
# checkout root with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/dcsr-e2e" .
exec "$root/.bench_build/dcsr-e2e" "$@"
