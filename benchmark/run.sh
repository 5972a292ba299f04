#!/usr/bin/env bash
# The BENCHMARK.json command: build pisd-bench from source into the
# checkout's .bench_build directory, then run it from the root of the
# checkout with the driver's arguments. The Go build cache, module cache
# and temporary files are kept in .bench_build too, so nothing outside the
# checkout is written.
#
#   bash benchmark/run.sh --workload static-sweep --seed 1 --seconds 16 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/pisd-bench" . >&2
cd "$root"
exec "$out/pisd-bench" "$@"
