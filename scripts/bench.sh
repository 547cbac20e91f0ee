#!/usr/bin/env bash
# Benchmark trajectory harness: runs the synthesis benchmark suite and
# writes the parsed record to BENCH_synth.json via cmd/report -bench-json.
#
# Usage:
#   scripts/bench.sh            # full run, writes BENCH_synth.json
#   scripts/bench.sh -smoke     # 1-iteration run into a temp file; validates
#                               # the harness without touching the committed
#                               # record, then diffs it against the committed
#                               # trajectory via cmd/report -regress (used by
#                               # scripts/verify.sh)
#
# Environment:
#   BENCHTIME               go test -benchtime for the full run (default 1s)
#   OUT                     output path for the full run (default BENCH_synth.json)
#   SMOKE_REGRESS_THRESHOLD -regress threshold for the smoke diff (default 8.0,
#                           i.e. +800% — a blowup guard, not a timing gate)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkSolveCSC|BenchmarkEquationDerivation|BenchmarkFullFlow|BenchmarkSymbolicVsExplicit|BenchmarkSymbolicParallel|BenchmarkServeSynthesize|BenchmarkPropCheck|BenchmarkObsDisabledOverhead|BenchmarkObsEnabledCounter)$'
# The obs overhead guards live in their own package; the root package holds
# everything else.
BENCH_PKGS='. ./internal/obs'
# Parallel family swept across GOMAXPROCS for the speedup columns: the
# parallel symbolic image.
SWEEP='^BenchmarkSymbolicParallel$'
SWEEP_PKGS='.'

# run_sweep OUTVAR benchtime: runs the parallel family at GOMAXPROCS
# 1, 2 and 4, capturing raw output per processor count, and sets OUTVAR to
# the "procs=file,..." spec cmd/report -scaling consumes.
run_sweep() {
    local -n _spec=$1
    local benchtime=$2
    _spec=""
    for p in 1 2 4; do
        local f="$snapdir/sweep_$p.txt"
        # shellcheck disable=SC2086
        GOMAXPROCS=$p go test -run '^$' -bench "$SWEEP" -benchtime="$benchtime" $SWEEP_PKGS > "$f"
        _spec+="${_spec:+,}$p=$f"
    done
}

# Instrumented flow run: the metrics snapshot from cmd/synth -metrics on the
# VME example is merged into the bench record so the trajectory carries the
# engine counters (states, candidates, cover literals, ...) next to timings.
snapdir=$(mktemp -d /tmp/bench_metrics.XXXXXX)
trap 'rm -rf "$snapdir"' EXIT
snap="$snapdir/vme-read.json"
go run ./cmd/synth -metrics "$snap" testdata/vme-read.g > /dev/null

if [ "${1:-}" = "-smoke" ]; then
    out=$(mktemp "$snapdir/bench_synth.XXXXXX.json")
    run_sweep sweepspec 1x
    # shellcheck disable=SC2086
    go test -run '^$' -bench "$BENCHES" -benchtime=1x $BENCH_PKGS \
        | go run ./cmd/report -bench-json -merge-metrics "$snap" -scaling "$sweepspec" > "$out"
    # The record must be well-formed JSON with a non-empty benchmark list.
    go run ./cmd/report -bench-json < /dev/null > /dev/null # exercises the empty path
    python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.load(f)
assert rec["suite"] == "synth", rec
assert rec["benchmarks"], "no benchmarks parsed"
names = {b["name"] for b in rec["benchmarks"]}
for want in ("SolveCSC/cscring-3/w1", "SolveCSC/cscring-3/w4",
             "EquationDerivation/cscring-2/w1", "EquationDerivation/cscring-2/w4",
             "ServeSynthesize/cold", "ServeSynthesize/cached",
             "ServeSynthesize/cold-durable", "ServeSynthesize/cached-durable",
             "ServeSynthesize/disk-hit",
             "SymbolicParallel/toggles-16/w1", "SymbolicParallel/toggles-16/w4",
             "PropCheck/vme-read/explicit", "PropCheck/vme-read/symbolic"):
    assert want in names, f"{want} missing from {sorted(names)}"
for want in ("ObsDisabledOverhead/counter", "ObsDisabledOverhead/span",
             "ObsEnabledCounter"):
    assert want in names, f"{want} missing from {sorted(names)}"
snap = rec["metrics_snapshots"]["vme-read"]
for counter in ("reach.states", "encoding.candidates", "logic.signals"):
    assert snap["counters"].get(counter, 0) > 0, f"{counter} zero in snapshot"
scaling = rec["scaling"]
assert scaling["gomaxprocs"] == [1, 2, 4], scaling["gomaxprocs"]
rows = {r["name"]: r for r in scaling["rows"]}
assert rows, "scaling sweep produced no rows"
for want in ("SymbolicParallel/toggles-16/w4",):
    row = rows.get(want)
    assert row, f"{want} missing from scaling rows {sorted(rows)}"
    for p in ("1", "2", "4"):
        assert row["ns_per_op"].get(p, 0) > 0, f"{want} has no ns/op at p={p}"
    for p in ("2", "4"):
        assert row.get("speedup", {}).get(p, 0) > 0, f"{want} has no speedup at p={p}"
print(f"bench smoke: {len(rec['benchmarks'])} benchmarks parsed OK, "
      f"{len(snap['counters'])} counters merged, "
      f"{len(rows)} scaling rows across GOMAXPROCS {scaling['gomaxprocs']}")
EOF
    # Regression guard against the committed trajectory. The smoke run is a
    # single iteration on whatever machine runs the gate, so the threshold is
    # deliberately loose (order-of-magnitude guard, default +800%): it
    # catches accidental algorithmic blowups, not scheduling noise.
    go run ./cmd/report -regress -threshold "${SMOKE_REGRESS_THRESHOLD:-8.0}" \
        BENCH_synth.json "$out"
    exit 0
fi

out=${OUT:-BENCH_synth.json}
run_sweep sweepspec "${BENCHTIME:-1s}"
# shellcheck disable=SC2086
go test -run '^$' -bench "$BENCHES" -benchtime="${BENCHTIME:-1s}" -benchmem $BENCH_PKGS \
    | go run ./cmd/report -bench-json -merge-metrics "$snap" -scaling "$sweepspec" > "$out"
echo "wrote $out"
