package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (e.g. "SolveCSC/cscring-2/w4"). Names are unique within a record.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds any additional value/unit pairs the benchmark reported
	// (allocs/op, states, events, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the committed benchmark trajectory record (BENCH_synth.json).
type benchFile struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Snapshots are metrics exports from instrumented runs (-metrics),
	// keyed by snapshot name, merged in via -merge-metrics so the committed
	// trajectory carries engine counters next to the timing numbers.
	Snapshots map[string]*obs.Snapshot `json:"metrics_snapshots,omitempty"`
}

// writeBenchJSON converts `go test -bench` plain-text output on r into the
// benchmark trajectory JSON on w. The output is taken to come from a run at
// this process's GOMAXPROCS. Lines that are not benchmark results (the
// goos/goarch/pkg/cpu header, PASS, ok) contribute metadata or are skipped.
// merge names metrics-snapshot JSON files (comma-separated) whose validated
// contents are embedded under "metrics_snapshots".
func writeBenchJSON(r io.Reader, w io.Writer, merge string) error {
	out := benchFile{
		Suite:      "synth",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: []benchResult{},
	}
	results, cpu, err := parseBenchOutput(r, out.GOMAXPROCS)
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	out.Benchmarks = append(out.Benchmarks, results...)
	out.CPU = cpu
	if err := checkUnique(out.Benchmarks); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	if err := mergeSnapshots(&out, merge); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseBenchOutput parses the result lines of `go test -bench` output from
// a run at procs GOMAXPROCS, in order, and its cpu header line if any.
// Other lines (goos/goarch/pkg, PASS, ok) are skipped.
func parseBenchOutput(r io.Reader, procs int) (results []benchResult, cpu string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseBenchLine(line, procs)
		if err != nil {
			return nil, "", err
		}
		results = append(results, res)
	}
	return results, cpu, sc.Err()
}

// checkUnique rejects a repeated benchmark name: records are compared by
// name, so a duplicate would silently shadow another result.
func checkUnique(results []benchResult) error {
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Name] {
			return fmt.Errorf("duplicate benchmark name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// mergeSnapshots loads each comma-separated metrics snapshot file, validates
// it, and stores it in the bench file keyed by base name (extension
// stripped).
func mergeSnapshots(out *benchFile, merge string) error {
	if merge == "" {
		return nil
	}
	out.Snapshots = map[string]*obs.Snapshot{}
	for _, path := range strings.Split(merge, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("merge-metrics: %w", err)
		}
		snap, err := obs.ParseSnapshot(data)
		if err != nil {
			return fmt.Errorf("merge-metrics %s: %w", path, err)
		}
		key := filepath.Base(path)
		key = strings.TrimSuffix(key, filepath.Ext(key))
		out.Snapshots[key] = snap
	}
	return nil
}

// parseBenchLine parses one result line of a run at GOMAXPROCS procs:
//
//	BenchmarkSolveCSC/cscring-2/w4-8   100   123456 ns/op   12.00 states
//
// go test appends "-procs" to every name when procs > 1 and nothing at
// procs = 1, so only that exact suffix is stripped: a trailing size such as
// "toggles-16" is part of the name.
func parseBenchLine(line string, procs int) (benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchResult{}, fmt.Errorf("malformed line %q", line)
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if procs > 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, fmt.Errorf("iterations in %q: %w", line, err)
	}
	res := benchResult{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, fmt.Errorf("value in %q: %w", line, err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = val
			continue
		}
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[unit] = val
	}
	return res, nil
}
