#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout's
# own source and run it with the given arguments. Run it from the root of the
# checkout. The binary and Go's build caches go to .bench_build/ in the
# checkout, so a run reads and writes nothing outside it and needs no HOME.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
