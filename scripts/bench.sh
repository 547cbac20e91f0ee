#!/usr/bin/env bash
# Benchmark trajectory harness: runs the synthesis benchmark suite and
# writes the parsed record to BENCH_synth.json via cmd/report -bench-json.
#
# Usage:
#   scripts/bench.sh            # full run, writes BENCH_synth.json
#   scripts/bench.sh -smoke     # 20 ms-per-row run into a temp file; validates
#                               # the harness without touching the committed
#                               # record, then diffs it against the committed
#                               # trajectory via cmd/report -regress (used by
#                               # scripts/verify.sh)
#   scripts/bench.sh -ab REV [ROWS] [N]
#                               # judges the working tree against commit REV on
#                               # this host: extracts REV with git archive into
#                               # a temp dir, builds the root test binary there
#                               # and here, runs the -bench pattern ROWS
#                               # (default '(BuildSG|Verify|FullFlow)/muller-8')
#                               # N times (default 3) with -benchmem,
#                               # interleaved, REV first, and prints each row's
#                               # ranges via cmd/report -ab
#
# Environment:
#   BENCHTIME               go test -benchtime for the full run and -ab
#                           (default 1s)
#   OUT                     output path for the full run (default BENCH_synth.json)
#   SMOKE_REGRESS_THRESHOLD -regress threshold for the smoke diff (default 8.0,
#                           i.e. +800% — a blowup guard, not a timing gate)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkSolveCSC|BenchmarkEquationDerivation|BenchmarkFullFlow|BenchmarkBuildSG|BenchmarkVerify|BenchmarkImplementability|BenchmarkMinimize|BenchmarkSymbolicVsExplicit|BenchmarkParse|BenchmarkServeSynthesize|BenchmarkPropCheck|BenchmarkObsDisabledOverhead|BenchmarkObsEnabledCounter)$'
# The obs overhead guards live in their own package; the root package holds
# everything else.
BENCH_PKGS='. ./internal/obs'

if [ "${1:-}" = "-ab" ]; then
    rev=${2:?usage: scripts/bench.sh -ab REV [ROWS] [N]}
    rows=${3:-'(BuildSG|Verify|FullFlow)/muller-8'}
    runs=${4:-3}
    abdir=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
    trap 'rm -rf "$abdir"' EXIT
    mkdir "$abdir/parent"
    git archive "$rev" | tar -x -C "$abdir/parent"
    (cd "$abdir/parent" && go test -c -o "$abdir/parent.test" .)
    go test -c -o "$abdir/change.test" .
    for i in $(seq "$runs"); do
        echo "bench -ab: run $i of $runs" >&2
        # Each binary runs in its own tree, where its tests find testdata/.
        (cd "$abdir/parent" && "$abdir/parent.test" -test.run '^$' -test.bench "$rows" \
            -test.benchtime "${BENCHTIME:-1s}" -test.benchmem) >> "$abdir/parent.txt"
        "$abdir/change.test" -test.run '^$' -test.bench "$rows" \
            -test.benchtime "${BENCHTIME:-1s}" -test.benchmem >> "$abdir/change.txt"
    done
    go run ./cmd/report -ab "$abdir/parent.txt" "$abdir/change.txt"
    exit 0
fi

# Instrumented flow run: the metrics snapshot from cmd/synth -metrics on the
# VME example is merged into the bench record so the trajectory carries the
# engine counters (states, candidates, cover literals, ...) next to timings.
snapdir=$(mktemp -d /tmp/bench_metrics.XXXXXX)
trap 'rm -rf "$snapdir"' EXIT
snap="$snapdir/vme-read.json"
go run ./cmd/synth -metrics "$snap" testdata/vme-read.g > /dev/null

if [ "${1:-}" = "-smoke" ]; then
    out=$(mktemp "$snapdir/bench_synth.XXXXXX.json")
    # shellcheck disable=SC2086
    go test -run '^$' -bench "$BENCHES" -benchtime=20ms $BENCH_PKGS \
        | go run ./cmd/report -bench-json -merge-metrics "$snap" > "$out"
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
             "SolveCSC/vme-read-write", "SolveCSC/cscring-4",
             "SolveCSC/cscring-4/flow",
             "EquationDerivation/cscring-2/w1", "EquationDerivation/cscring-2/w4",
             "FullFlow/muller-8/w1", "Verify/muller-8", "BuildSG/muller-8",
             "Implementability/vme-read-write", "Implementability/muller-8",
             "ServeSynthesize/cold", "ServeSynthesize/cached",
             "ServeSynthesize/cold-durable", "ServeSynthesize/cached-durable",
             "ServeSynthesize/disk-hit",
             "Parse/g/vme-read", "Parse/g/muller-8", "Parse/eqn/vme-read",
             "SymbolicVsExplicit/symbolic/muller-7",
             "Minimize/sg-vme-read-write", "Minimize/dense-12",
             "PropCheck/vme-read/explicit", "PropCheck/vme-read/symbolic"):
    assert want in names, f"{want} missing from {sorted(names)}"
for want in ("ObsDisabledOverhead/counter", "ObsDisabledOverhead/span",
             "ObsEnabledCounter"):
    assert want in names, f"{want} missing from {sorted(names)}"
snap = rec["metrics_snapshots"]["vme-read"]
for counter in ("reach.states", "encoding.candidates", "logic.signals"):
    assert snap["counters"].get(counter, 0) > 0, f"{counter} zero in snapshot"
print(f"bench smoke: {len(rec['benchmarks'])} benchmarks parsed OK, "
      f"{len(snap['counters'])} counters merged")
EOF
    # Regression guard against the committed trajectory. The smoke run gives
    # every row 20 ms, so microsecond rows report warm ns/op (one cold
    # iteration overshoots them by up to 20x) while rows slower than that run
    # once. It runs on whatever machine runs the gate, so the threshold is
    # deliberately loose (order-of-magnitude guard, default +800%): it
    # catches accidental algorithmic blowups, not scheduling noise.
    go run ./cmd/report -regress -threshold "${SMOKE_REGRESS_THRESHOLD:-8.0}" \
        BENCH_synth.json "$out"
    exit 0
fi

out=${OUT:-BENCH_synth.json}
# shellcheck disable=SC2086
go test -run '^$' -bench "$BENCHES" -benchtime="${BENCHTIME:-1s}" -benchmem $BENCH_PKGS \
    | go run ./cmd/report -bench-json -merge-metrics "$snap" > "$out"
echo "wrote $out"
