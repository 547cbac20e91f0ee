#!/usr/bin/env bash
# Repo verification gate: formatting, vet, build, full tests, and the
# race-detector subset covering the packages that run goroutines.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The benchmark has its own module (bench/go.mod, replacing repro with
# ../), so ./... above skips it: vet, build and test it against this tree
# so that an API change it depends on fails here, not at the benchmark run.
(cd bench && go vet . && go build -o /dev/null . && go test -count=1 .)
# -timeout 30s per test binary: a hang in a budget/cancellation path must
# fail the gate, not wedge it. internal/conformance runs on its own line:
# its synthesis golden alone takes ~20 s, and with the other test binaries
# running alongside it could pass the 30 s bound without hanging.
go test -timeout 30s $(go list ./... | grep -v '/internal/conformance$')
go test -timeout 30s ./internal/conformance/
go test -timeout 30s -race ./internal/reach/... ./internal/stubborn/... ./internal/obs/... ./internal/serve/...
# Fault-injection harness under the race detector: cancel/limit/panic
# faults at every named check site must produce typed errors with no
# hangs, crashes or goroutine leaks.
go test -timeout 60s -race ./internal/faultinject/
# Cross-engine differential suite under the race detector (its models run
# as parallel subtests): every engine must agree on every model. Then a
# short fuzz smoke of the BDD kernel against its truth-table oracle.
go test -timeout 120s -run Conformance -race ./internal/conformance/
go test -fuzz=FuzzBDDOps -fuzztime=5s -run '^$' ./internal/bdd/
# Exact two-level minimizer fuzz smoke against its brute-force oracle over
# all 3^n cubes (n <= 8): same primes in the same order, a cover that
# separates the on-set from the off-set.
go test -fuzz=FuzzMinimizeOnOff -fuzztime=5s -run '^$' ./internal/boolmin/
# .g parser fuzz smoke: no panics, canonical form is a fixed point.
go test -fuzz=FuzzSTGParse -fuzztime=5s -run '^$' ./internal/stg/
# .eqn parser fuzz smoke: no panics, and every accepted netlist's
# WriteEquations text reparses and renders byte-identical.
go test -fuzz=FuzzEqnParse -fuzztime=5s -run '^$' ./internal/logic/
# Property layer gate: unit + golden/CLI tests under the race detector,
# fault injection into its budget sites, and a parser fuzz smoke whose
# accepted inputs double as an explicit-vs-symbolic oracle. The
# cross-engine differential (TestPropConformance) rides the conformance
# line above.
go test -timeout 60s -race ./internal/prop/ ./cmd/verify/
go test -fuzz=FuzzPropParse -fuzztime=5s -run '^$' ./internal/prop/
# Parallel synthesis determinism under the race detector: identical
# solutions, functions and netlists at every worker count, the CSC
# candidate product agreeing with the rebuild on every insertion pair at
# one and two workers (the corpus and the CSC rings 2-4, 61,244 pairs, each
# rebuilt graph's persistency also checked against the pair scan), the
# class check (every pair of those rounds and of a choice-merge spec, scored
# on its own, gets the verdict of the representative the search explores in
# its place, and both build nets with one canonical signature; no two
# accepted representatives of a round do, so survivors share a signature
# exactly when they share a class), twin first-round survivors (one pair
# class, the key firstRound's twin skip uses) ranking and continuing
# alike (the premise of skipping a twin's exhausted continuation, and
# cscring-4's counters with the skip), the search exploring each STG once
# (its reach.label budget checks pinned at one and two workers), and the
# pooled concurrency-reduction search matching its golden at one and two
# workers.
go test -timeout 60s -race -run 'Deterministic|MatchesSequential|TieBreak|CSCError|ProductMatchesRebuild|InsertionClassesMatchPairs|Twin|ExploresEachSTGOnce|ReductionGolden' ./internal/encoding/ ./internal/logic/
# One state graph per flow under the race detector: Verify handed the
# flow's state graph returns exactly what it returns when it builds its own,
# and a spec that already has CSC runs no encoding search. Concurrency
# reduction runs inside the same flow: its counters and span in core, and
# cmd/synth -method reduce matching -method insert where no encoding runs.
# Verify and StateGraph return exactly what the reference explorer returns,
# the verifier's fan rule (re-evaluating only the gates that read or drive
# the fired signal) gives ExcitedMask's answer at every flip it is checked
# on, StateGraph honours its budget, HasUSC/HasCSC agree with the pair
# lists, and IsPersistent's mask rule agrees with the PersistencyViolations
# pair scan on the corpus and on every graph with one arc deleted.
go test -timeout 60s -race -run 'TestVerifySpecSGMatchesRebuild|TestVerifyMatchesReference|TestStateGraphMatchesReference|TestExcitedAfterMatchesExcitedMask|TestStateGraphBudget|TestHasUSCMatchesPairList|TestIsPersistentMatchesPairScan|TestCSCSpecSkipsEncoding|TestReduceInFlow' ./internal/sim/ ./internal/ts/ ./internal/core/
go test -timeout 60s -race -run 'TestSynthReduce|TestSynthUnknownMethod' ./cmd/synth/
# Observability gate: instrumented runs of cmd/synth and cmd/reach on the
# VME example must export a metrics snapshot with non-zero counters for the
# instrumented engines and a well-formed flow → phase → engine trace. The
# artifacts are validated by the TestExternalArtifacts hook in internal/obs.
obsdir=$(mktemp -d /tmp/obs_gate.XXXXXX)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/synth -metrics "$obsdir/synth.metrics.json" \
    -trace-json "$obsdir/synth.trace.json" testdata/vme-read.g > /dev/null
OBS_METRICS_FILE="$obsdir/synth.metrics.json" \
OBS_TRACE_FILE="$obsdir/synth.trace.json" \
OBS_REQUIRE_HIERARCHY=1 \
OBS_REQUIRE_COUNTERS=reach.states,reach.arcs,encoding.candidates,encoding.explored,encoding.costed,encoding.rebuilt,logic.signals,logic.cover_literals \
    go test -timeout 30s -run TestExternalArtifacts -count=1 ./internal/obs/
# The concurrency-reduction flow exports the same trace shape and the
# encoding search's counters.
go run ./cmd/synth -method reduce -metrics "$obsdir/reduce.metrics.json" \
    -trace-json "$obsdir/reduce.trace.json" testdata/vme-read.g > /dev/null
OBS_METRICS_FILE="$obsdir/reduce.metrics.json" \
OBS_TRACE_FILE="$obsdir/reduce.trace.json" \
OBS_REQUIRE_HIERARCHY=1 \
OBS_REQUIRE_COUNTERS=reach.states,encoding.candidates,encoding.costed,encoding.rebuilt,logic.signals \
    go test -timeout 30s -run TestExternalArtifacts -count=1 ./internal/obs/
# cmd/reach covers the engines a successful synthesis flow never runs
# (symbolic, unfolding, stubborn sets) plus the BDD kernel counters.
go run ./cmd/reach -metrics "$obsdir/reach.metrics.json" \
    -trace-json "$obsdir/reach.trace.json" testdata/vme-read-write.g > /dev/null
OBS_METRICS_FILE="$obsdir/reach.metrics.json" \
OBS_TRACE_FILE="$obsdir/reach.trace.json" \
OBS_REQUIRE_HIERARCHY=1 \
OBS_REQUIRE_COUNTERS=reach.states,symbolic.iterations,bdd.cache_lookups,unfold.events,stubborn.states \
    go test -timeout 30s -run TestExternalArtifacts -count=1 ./internal/obs/
# Daemon smoke gate under the race detector: boots cmd/serve on a free
# port, synthesizes the VME spec cold and cached (the cache hit must not
# charge an engine run), validates /metrics through obs.ParseSnapshot, and
# drains cleanly on SIGINT.
go test -timeout 120s -race -run TestDaemonSmokeAndGracefulShutdown -count=1 ./cmd/serve/
# Live-telemetry gate under the race detector: W3C traceparent propagation
# through envelope/header/journal, the retained per-job span tree in both
# trace schemas, SSE job streaming, Prometheus content negotiation on
# /metrics, JSON structured logs stamped with the trace id, and the private
# pprof listener (the public mux must 404 /debug/pprof/).
go test -timeout 120s -race -run 'TestLiveTelemetryE2E|TestBadLogFormatIsUsageError' -count=1 ./cmd/serve/
go test -timeout 60s -race -run 'Trace|SSE|Prom|Metrics' -count=1 ./internal/serve/ ./internal/obs/
# Bench comparator unit gate: the -regress diff of two records (the smoke
# diff below exercises the real ones) and the -ab ranges of interleaved
# parent and change runs on canned go test -bench output.
go test -timeout 30s -run 'Regress|AB' -count=1 ./cmd/report/
# Chaos gate under the race detector (goroutine-leak-checked): cmd/serve as
# a real subprocess SIGKILLed at the journal-append, mid-job and
# mid-cache-write kill sites, restarted on the same data dir. Invariants:
# no acknowledged job lost, died-mid-run jobs reported interrupted, torn
# cache writes never served, warm p50 journaling overhead within 10%.
go test -timeout 300s -race -count=1 ./internal/chaos/
# Benchmark trajectory harness smoke: 20 ms per row of the suite, parsed
# through cmd/report -bench-json into a validated throwaway record.
scripts/bench.sh -smoke
echo "verify: OK"
