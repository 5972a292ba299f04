#!/usr/bin/env bash
# throughput_smoke.sh — multi-core serving-path smoke (PR7).
#
# Two assertions, both cheap enough for CI:
#
#  1. Throughput: the serving path (concurrent lockstep clients through
#     the admission gate, result cache and per-shard connection pool)
#     beats the single-connection lockstep baseline on sustained qps.
#     Runs with GOMAXPROCS >= 4 so the pooled connections actually
#     overlap work.
#  2. Leakage: the leakage-invariant suite — including
#     TestLeakageInvariantServingCache, which pins that a cache hit
#     issues ZERO bucket unmasks — still passes under the race detector
#     with the cache in the path.
#
# Usage: scripts/throughput_smoke.sh
#   BENCHTIME=4s scripts/throughput_smoke.sh   # stabler qps comparison
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
GOMAXPROCS="${GOMAXPROCS:-$(nproc)}"
if [ "$GOMAXPROCS" -lt 4 ]; then
    GOMAXPROCS=4
fi
export GOMAXPROCS
echo "GOMAXPROCS=$GOMAXPROCS benchtime=$BENCHTIME"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' \
    -bench 'BenchmarkThroughput_DiscoverySerial$|BenchmarkThroughput_DiscoverLockstep' \
    -benchtime "$BENCHTIME" . | tee "$TMP"

# qps NAME extracts a benchmark's reported qps (integer part).
qps() {
    awk -v b="$1" '$1 ~ "^"b {
        for (i = 2; i <= NF; i++) if ($i == "qps") { printf "%d\n", $(i-1); exit }
    }' "$TMP"
}

serial="$(qps BenchmarkThroughput_DiscoverySerial)"
pooled="$(qps BenchmarkThroughput_DiscoverLockstepPooled)"
cached="$(qps BenchmarkThroughput_DiscoverLockstepCached)"
if [ -z "$serial" ] || [ -z "$pooled" ] || [ -z "$cached" ]; then
    echo "FAIL  missing qps metrics (serial='$serial' pooled='$pooled' cached='$cached')" >&2
    exit 1
fi
echo "qps: serial=$serial pooled=$pooled cached=$cached"

# The full serving path must beat the lockstep baseline outright. The
# cache-off pooled point is reported above for the scaling record but
# only gated loosely: on a single hardware core concurrent clients cannot
# beat a lockstep client by much (there is no parallelism to recover), so
# it must merely stay within 30% of serial rather than regress badly.
if [ "$cached" -le "$serial" ]; then
    echo "FAIL  serving path (cached) $cached qps <= serial baseline $serial qps" >&2
    exit 1
fi
if [ $((pooled * 10)) -lt $((serial * 7)) ]; then
    echo "FAIL  pooled $pooled qps fell below 70% of serial $serial qps" >&2
    exit 1
fi

# Leakage invariants with the serving path in front: race detector on.
go test -race -run 'TestLeakageInvariant' -count=1 .

echo "throughput smoke passed"
