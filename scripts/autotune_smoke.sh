#!/usr/bin/env bash
# autotune_smoke.sh — CI smoke for the recall/cost autotuner.
#
# Three assertions, all in seconds, all reproducible from seed 1:
#
#   1. The tuner's own test suite passes: determinism (two runs of one
#      seed produce byte-identical reports, also across core counts), the
#      pinned tiny-grid winner, dominance pruning, skyline extraction and
#      the measured-run invariants (buckets/query == l·(d+1) budget
#      exactly).
#   2. The pisd-autotune CLI, on the seeded 2000-user smoke dataset with
#      the tiny grid, reproduces the known-dominant config
#      l=6 k=4 W=1 d=4 at budget 30 as its measured winner with a ≥25%
#      budget reduction, and exits 0.
#   3. The leakage-invariant suite — including TestLeakageInvariantTuned,
#      which drives discoveries through ConfigForPopulation's tuned
#      operating point — passes under the race detector: tuned parameters
#      change the size of the fixed bucket budget, never its constancy.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== autotune test suite =="
go test ./internal/autotune/ ./cmd/pisd-autotune/

echo "== tuner reproduces the known-dominant config =="
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/pisd-autotune" ./cmd/pisd-autotune
"$BIN/pisd-autotune" -users 2000 -dim 128 -queries 24 -seed 1 -grid tiny \
    -out "$BIN/frontier.json" | tee "$BIN/run.log"

grep -q 'winner l=6 k=4 W=1 d=4 budget 30' "$BIN/run.log" || {
    echo "FAIL: expected winner l=6 k=4 W=1 d=4 budget 30" >&2
    echo "repro: go run ./cmd/pisd-autotune -users 2000 -dim 128 -queries 24 -seed 1 -grid tiny" >&2
    exit 1
}
python3 - "$BIN/frontier.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
w = rep["winner"]
assert w is not None, "no winner in report"
assert rep["budget_reduction"] >= 0.25, f"budget reduction {rep['budget_reduction']} < 0.25"
assert w["measured"] is not None, "winner was not measured on the secure stack"
print(f"ok    winner budget {w['budget']} vs reference {rep['reference']['budget']}"
      f" (-{rep['budget_reduction']:.0%}), measured secure recall {w['measured']['recall']:.4f}")
EOF

echo "== leakage invariant under the tuned config (race) =="
go test -race -run 'TestLeakageInvariant' .

echo "autotune smoke passed"
