#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload paper-fig7 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's trace files all go under .bench_build/ in the current
# directory, so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export XDG_CONFIG_HOME="$out/config"

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
