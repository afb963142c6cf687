#!/usr/bin/env bash
# Builds the benchmark harness and the wrsncsad/wrsnworker binaries from
# the source tree it sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload attack-200 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or caches stays
# under .bench_build/ there; the last line of standard output is the
# result JSON.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
bin="$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off
mkdir -p "$bin"

go build -C "$root" -o "$bin/" ./cmd/wrsncsad ./cmd/wrsnworker
go build -C "$root/perfbench" -o "$bin/perfbench" .

GOMAXPROCS=1 exec "$bin/perfbench" -bin "$bin" -out "$bin" "$@"
