#!/usr/bin/env bash
# Repo verification gate: formatting, vet, build, full tests, and the
# race-detector subset covering the concurrent exploration engines.
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
# -timeout 30s per test binary: a hang in a budget/cancellation path must
# fail the gate, not wedge it.
go test -timeout 30s ./...
go test -timeout 30s -race ./internal/reach/... ./internal/stubborn/... ./internal/obs/... ./internal/serve/...
# Lock-free structures under the race detector: the concurrent BDD kernel
# (canonicity, epoch retry) and the parallel symbolic image.
go test -timeout 120s -race ./internal/bdd/ ./internal/symbolic/
# Fault-injection harness under the race detector: cancel/limit/panic
# faults at every named check site must produce typed errors with no
# hangs, crashes or goroutine leaks.
go test -timeout 60s -race ./internal/faultinject/
# Cross-engine differential suite under the race detector, pinned to
# GOMAXPROCS=4 so the parallel symbolic image's workers really interleave:
# every engine must agree on every model. Then a short fuzz smoke of the
# BDD kernel against its truth-table oracle.
GOMAXPROCS=4 go test -timeout 120s -run Conformance -race ./internal/conformance/
go test -fuzz=FuzzBDDOps -fuzztime=5s -run '^$' ./internal/bdd/
# .g parser fuzz smoke: no panics, canonical form is a fixed point.
go test -fuzz=FuzzSTGParse -fuzztime=5s -run '^$' ./internal/stg/
# Property layer gate: unit + golden/CLI tests under the race detector,
# fault injection into its budget sites, and a parser fuzz smoke whose
# accepted inputs double as an explicit-vs-symbolic oracle. The
# cross-engine differential (TestPropConformance) rides the conformance
# line above.
go test -timeout 60s -race ./internal/prop/ ./cmd/verify/
go test -fuzz=FuzzPropParse -fuzztime=5s -run '^$' ./internal/prop/
# Parallel synthesis determinism under the race detector: identical
# solutions, functions and netlists at every worker count.
go test -timeout 60s -race -run 'Deterministic|MatchesSequential|TieBreak|CSCError' ./internal/encoding/ ./internal/logic/
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
OBS_REQUIRE_COUNTERS=reach.states,reach.arcs,encoding.candidates,logic.signals,logic.cover_literals \
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
# Bench regression comparator unit gate (the smoke diff below exercises the
# real records).
go test -timeout 30s -run Regress -count=1 ./cmd/report/
# Chaos gate under the race detector (goroutine-leak-checked): cmd/serve as
# a real subprocess SIGKILLed at the journal-append, mid-job and
# mid-cache-write kill sites, restarted on the same data dir. Invariants:
# no acknowledged job lost, died-mid-run jobs reported interrupted, torn
# cache writes never served, warm p50 journaling overhead within 10%.
go test -timeout 300s -race -count=1 ./internal/chaos/
# Benchmark trajectory harness smoke: one iteration of the suite, parsed
# through cmd/report -bench-json into a validated throwaway record.
scripts/bench.sh -smoke
echo "verify: OK"
