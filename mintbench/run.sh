#!/usr/bin/env bash
# Builds mintd and the benchmark from the tree under test into
# .bench_build, then runs the benchmark with the given arguments, e.g.
#   bash mintbench/run.sh --workload query-worker --seed 1 --seconds 36 --trace 0
# Run it from the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Build offline with the installed toolchain; caches and temporary files
# stay inside the checkout.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/mintd" ./cmd/mintd
go -C mintbench build -o "$out/mintbench" .
exec "$out/mintbench" -mintd "$out/mintd" -workdir "$out" "$@"
