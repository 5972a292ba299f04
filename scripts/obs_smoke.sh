#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke of the observability endpoint.
#
# Builds the server and frontend binaries, brings up a 2-shard deployment
# with -obs enabled on both processes, runs a couple of discoveries, and
# asserts that each /metrics endpoint serves the keys the deployment
# dashboards rely on, with sane values:
#
#   server   cloud.buckets_unmasked        > 0 (SecRec answered queries)
#   server   cloud.leakage_invariant_violations == 0
#   server   transport.server.workers_per_conn == 6 (-workers honored)
#   frontend transport.frames_out          > 0 (multiplexed frames sent)
#   frontend shard.0.secrec_p99_ns         > 0 (per-shard latency derived)
#   frontend frontend.cache_misses         > 0 (first discoveries missed)
#   frontend frontend.cache_hits           > 0 (repeated target 1 hit)
#   frontend frontend.profiles_decrypted   > 0 (first answers paid MAC + AES)
#   frontend frontend.profiles_reused      > 0 (second wave's miss reused held profiles)
#   frontend frontend.profiles_held        > 0 (the live entry pins its profiles)
#   frontend frontend.admission_rejected   == 0 (no shedding at this load)
#
# The discovery list repeats target 1 so the serving path's result cache
# provably takes a hit, and the server runs with an explicit -workers
# bound so the gauge reflects CLI configuration rather than a default.
# Targets 1 and 208 collide in an LSH table, so their answers share that
# table's probe window; with a one-entry cache and two waves, the second
# wave finds one of the two cached and the other missing over profiles the
# cached entry still pins — a miss that provably reuses the profile table.
#
# A second phase smokes the segmented deployment: pisd-segbuild streams a
# small population to disk (its metrics snapshot must show the compaction
# ran), a fresh server serves the segments, and after an attached
# discovery its /metrics must expose the segment store's surface:
#
#   segbuild segstore.compactions          > 0 (merge pass ran)
#   server   segstore.segments             > 0 (live segments gauge)
#   server   segstore.bytes                > 0 (on-disk index size)
#   server   segstore.load_p50_ns          > 0 (bucket-load latency served)
#   server   segstore.load_p99_ns          > 0
#
# The frontend lingers after the discoveries when -obs is set, which is
# what makes scraping it here possible.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVER_OBS=127.0.0.1:9310
FRONTEND_OBS=127.0.0.1:9311
CLOUD=127.0.0.1:7310

SEG_SERVER_OBS=127.0.0.1:9312
SEG_CLOUD=127.0.0.1:7312

BIN="$(mktemp -d)"
server_pid=""
frontend_pid=""
seg_server_pid=""
cleanup() {
    [ -n "$frontend_pid" ] && kill "$frontend_pid" 2>/dev/null || true
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "$seg_server_pid" ] && kill "$seg_server_pid" 2>/dev/null || true
    # Let the servers finish their shutdown state save before the
    # directory under them disappears.
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/pisd-server" ./cmd/pisd-server
go build -o "$BIN/pisd-frontend" ./cmd/pisd-frontend
go build -o "$BIN/pisd-segbuild" ./cmd/pisd-segbuild

"$BIN/pisd-server" -addr "$CLOUD" -shards 2 -workers 6 -obs "$SERVER_OBS" &
server_pid=$!

# Wait for the server's obs endpoint before starting the frontend.
for i in $(seq 1 50); do
    curl -sf "http://$SERVER_OBS/metrics" >/dev/null 2>&1 && break
    sleep 0.2
done

"$BIN/pisd-frontend" -cloud "$CLOUD,127.0.0.1:7311" -users 400 -dim 100 \
    -discover 1,208,1 -cache 1 -waves 2 -obs "$FRONTEND_OBS" &
frontend_pid=$!

# metric ENDPOINT KEY prints the key's value, failing if absent.
metric() {
    curl -sf "http://$1/metrics" | tr -d ' ' | tr ',{}' '\n\n\n' \
        | awk -F: -v k="\"$2\"" '$1 == k { print $2; found = 1 } END { exit !found }'
}

# Poll until the discoveries have gone through (buckets were unmasked).
unmasked=0
for i in $(seq 1 100); do
    unmasked="$(metric "$SERVER_OBS" cloud.buckets_unmasked 2>/dev/null || echo 0)"
    [ "$unmasked" -gt 0 ] && break
    sleep 0.3
done
# ... and until both waves of three discoveries have completed.
for i in $(seq 1 100); do
    [ "$(metric "$FRONTEND_OBS" frontend.discoveries 2>/dev/null || echo 0)" -ge 6 ] && break
    sleep 0.1
done

fail=0
check() { # check NAME VALUE TEST...
    local name=$1 value=$2
    shift 2
    if [ -z "$value" ] || ! [ "$value" "$@" ]; then
        echo "FAIL  $name = '$value' (want $*)" >&2
        fail=1
    else
        echo "ok    $name = $value"
    fi
}

check cloud.buckets_unmasked "$unmasked" -gt 0
check cloud.leakage_invariant_violations \
    "$(metric "$SERVER_OBS" cloud.leakage_invariant_violations || true)" -eq 0
check transport.server.workers_per_conn \
    "$(metric "$SERVER_OBS" transport.server.workers_per_conn || true)" -eq 6
check transport.frames_out \
    "$(metric "$FRONTEND_OBS" transport.frames_out || true)" -gt 0
check shard.0.secrec_p99_ns \
    "$(metric "$FRONTEND_OBS" shard.0.secrec_p99_ns || true)" -gt 0
check frontend.cache_misses \
    "$(metric "$FRONTEND_OBS" frontend.cache_misses || true)" -gt 0
check frontend.cache_hits \
    "$(metric "$FRONTEND_OBS" frontend.cache_hits || true)" -gt 0
check frontend.profiles_decrypted \
    "$(metric "$FRONTEND_OBS" frontend.profiles_decrypted || true)" -gt 0
check frontend.profiles_reused \
    "$(metric "$FRONTEND_OBS" frontend.profiles_reused || true)" -gt 0
check frontend.profiles_held \
    "$(metric "$FRONTEND_OBS" frontend.profiles_held || true)" -gt 0
check frontend.admission_rejected \
    "$(metric "$FRONTEND_OBS" frontend.admission_rejected || true)" -eq 0

# pprof must answer too: the index page is enough to prove it is wired up.
if ! curl -sf "http://$SERVER_OBS/debug/pprof/" >/dev/null; then
    echo "FAIL  /debug/pprof/ not served" >&2
    fail=1
else
    echo "ok    /debug/pprof/ served"
fi

# ---- segmented deployment phase -------------------------------------
# Stream a small population to disk, serve the segments, attach, and
# check the segstore metric surface end to end.
"$BIN/pisd-segbuild" -users 800 -dim 100 -batch 200 -out "$BIN/segments" \
    -state "$BIN/segstate" -keys "$BIN/sf.keys" -queries 4 \
    -metrics "$BIN/segbuild-metrics.json" >/dev/null

# file_metric FILE KEY prints the key's value from a metrics snapshot.
file_metric() {
    tr -d ' ' <"$1" | tr ',{}' '\n\n\n' \
        | awk -F: -v k="\"$2\"" '$1 == k { print $2; found = 1 } END { exit !found }'
}
check segstore.compactions \
    "$(file_metric "$BIN/segbuild-metrics.json" segstore.compactions || true)" -gt 0

"$BIN/pisd-server" -addr "$SEG_CLOUD" -segments "$BIN/segments" \
    -state "$BIN/segstate" -obs "$SEG_SERVER_OBS" &
seg_server_pid=$!
for i in $(seq 1 50); do
    curl -sf "http://$SEG_SERVER_OBS/metrics" >/dev/null 2>&1 && break
    sleep 0.2
done

"$BIN/pisd-frontend" -attach -cloud "$SEG_CLOUD" -users 800 -dim 100 \
    -keys "$BIN/sf.keys" -discover 1,2 >/dev/null

check segstore.segments \
    "$(metric "$SEG_SERVER_OBS" segstore.segments || true)" -gt 0
check segstore.bytes \
    "$(metric "$SEG_SERVER_OBS" segstore.bytes || true)" -gt 0
check segstore.load_p50_ns \
    "$(metric "$SEG_SERVER_OBS" segstore.load_p50_ns || true)" -gt 0
check segstore.load_p99_ns \
    "$(metric "$SEG_SERVER_OBS" segstore.load_p99_ns || true)" -gt 0

if [ "$fail" -ne 0 ]; then
    echo "observability smoke failed" >&2
    exit 1
fi
echo "observability smoke passed"
