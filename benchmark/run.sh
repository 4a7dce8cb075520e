#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments, e.g.
#   bash benchmark/run.sh --workload vran --seed 3 --seconds 20 --trace 0
# Run it from the repository root. Build cache, binary and run outputs
# all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/benchmark" && go build -o "$build/mtbench" .)
exec "$build/mtbench" "$@"
