#!/usr/bin/env bash
# Builds the benchmark and the btswarm daemon from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays in .bench_build/: the Go
# build cache, both binaries, checkpoint scratch and span files.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -C bench -o "$out/bench" .
go build -o "$out/btswarm" ./cmd/btswarm
exec "$out/bench" -btswarm "$out/btswarm" -work "$out" "$@"
