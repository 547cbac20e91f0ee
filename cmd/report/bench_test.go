package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// withProcs fills the {p} placeholders of raw go test output with the
// suffix a run at this process's GOMAXPROCS appends to every name: "-N",
// or nothing at GOMAXPROCS=1.
func withProcs(raw string) string {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p > 1 {
		suffix = "-" + strconv.Itoa(p)
	}
	return strings.ReplaceAll(raw, "{p}", suffix)
}

var sampleBenchOutput = withProcs(`goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSolveCSC/vme-read{p}         	      27	  42724567 ns/op
BenchmarkSolveCSC/cscring-2/w4{p}     	      31	  37000000 ns/op	       5.000 states
BenchmarkStubbornReduction/phil-7{p}  	     100	    123456 ns/op	    1000 states	     200 B/op	       3 allocs/op
PASS
ok  	repro	12.345s
`)

// TestParseBenchLineSuffix pins the GOMAXPROCS suffix rule: only the exact
// "-procs" suffix of the producing run is stripped, so sizes at the end of
// a name survive — including every name of a GOMAXPROCS=1 run.
func TestParseBenchLineSuffix(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		want  string
	}{
		{"SymbolicVsExplicit/explicit/toggles-16", 1, "SymbolicVsExplicit/explicit/toggles-16"},
		{"SymbolicVsExplicit/explicit/toggles-16-2", 2, "SymbolicVsExplicit/explicit/toggles-16"},
		{"SymbolicParallel/toggles-16/w4-2", 2, "SymbolicParallel/toggles-16/w4"},
		{"SymbolicParallel/toggles-16/w4-1", 1, "SymbolicParallel/toggles-16/w4-1"},
		{"SymbolicParallel/toggles-16/w4-4", 2, "SymbolicParallel/toggles-16/w4-4"},
		{"FullFlow/muller-3", 4, "FullFlow/muller-3"},
	} {
		res, err := parseBenchLine("Benchmark"+tc.name+" 10 1000 ns/op", tc.procs)
		if err != nil {
			t.Fatalf("%s at p=%d: %v", tc.name, tc.procs, err)
		}
		if res.Name != tc.want {
			t.Errorf("%s at p=%d: name %q, want %q", tc.name, tc.procs, res.Name, tc.want)
		}
	}
}

// TestWriteBenchJSONRejectsDuplicateNames: a name seen twice — in the main
// output or in one sweep file — is an error, not a silent overwrite.
func TestWriteBenchJSONRejectsDuplicateNames(t *testing.T) {
	dup := withProcs("BenchmarkFullFlow/vme-read{p} 10 1000 ns/op\nBenchmarkFullFlow/vme-read{p} 10 1100 ns/op\n")
	var out bytes.Buffer
	err := writeBenchJSON(strings.NewReader(dup), &out, "", "")
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names must be rejected, got %v", err)
	}
	path := t.TempDir() + "/sweep2.txt"
	if err := os.WriteFile(path, []byte("BenchmarkA/w4-2 1 10 ns/op\nBenchmarkA/w4-2 1 11 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchJSON(strings.NewReader(""), &out, "", "2="+path); err == nil {
		t.Fatal("duplicate names in a sweep file must be rejected")
	}
}

func TestWriteBenchJSON(t *testing.T) {
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, "", ""); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if f.Suite != "synth" || f.GOMAXPROCS < 1 || f.GoVersion == "" {
		t.Fatalf("metadata incomplete: %+v", f)
	}
	if !strings.Contains(f.CPU, "Xeon") {
		t.Fatalf("cpu line not captured: %q", f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %d", len(f.Benchmarks))
	}
	first := f.Benchmarks[0]
	if first.Name != "SolveCSC/vme-read" || first.Iterations != 27 || first.NsPerOp != 42724567 {
		t.Fatalf("first result misparsed: %+v", first)
	}
	second := f.Benchmarks[1]
	if second.Name != "SolveCSC/cscring-2/w4" || second.Metrics["states"] != 5 {
		t.Fatalf("second result misparsed: %+v", second)
	}
	third := f.Benchmarks[2]
	if third.Metrics["allocs/op"] != 3 || third.Metrics["B/op"] != 200 {
		t.Fatalf("alloc metrics misparsed: %+v", third)
	}
}

func TestWriteBenchJSONRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	err := writeBenchJSON(strings.NewReader("BenchmarkBroken notanumber ns/op\n"), &out, "", "")
	if err == nil {
		t.Fatal("malformed benchmark line must error")
	}
}

func TestWriteBenchJSONMergesMetrics(t *testing.T) {
	snap := `{
  "counters": {"reach.states": 24, "logic.signals": 5},
  "gauges": {"symbolic.peak_nodes": 37},
  "spans": [
    {"id": 0, "parent": -1, "name": "flow:synthesize", "cat": "flow", "start_us": 0, "dur_us": 100},
    {"id": 1, "parent": 0, "name": "phase:sg", "cat": "phase", "start_us": 1, "dur_us": 40}
  ]
}`
	dir := t.TempDir()
	path := dir + "/vme-read.metrics.json"
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, path, ""); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	got, ok := f.Snapshots["vme-read.metrics"]
	if !ok {
		t.Fatalf("snapshot not merged; keys: %v", f.Snapshots)
	}
	if got.Counters["reach.states"] != 24 || got.Gauges["symbolic.peak_nodes"] != 37 {
		t.Fatalf("snapshot content lost: %+v", got)
	}
}

func TestWriteBenchJSONScalingSweep(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// go test appends no suffix at GOMAXPROCS=1.
	p1 := write("sweep1.txt", "BenchmarkSymbolicParallel/muller-6/w4 \t 10\t 4000 ns/op\nBenchmarkSymbolicParallel/toggles-16/w4 \t 5\t 8000 ns/op\n")
	p2 := write("sweep2.txt", "BenchmarkSymbolicParallel/muller-6/w4-2 \t 10\t 2500 ns/op\nBenchmarkSymbolicParallel/toggles-16/w4-2 \t 5\t 5000 ns/op\n")
	p4 := write("sweep4.txt", "BenchmarkSymbolicParallel/muller-6/w4-4 \t 10\t 1000 ns/op\nBenchmarkSymbolicParallel/toggles-16/w4-4 \t 5\t 4000 ns/op\n")
	var out bytes.Buffer
	spec := "1=" + p1 + ",2=" + p2 + ",4=" + p4
	if err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, "", spec); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if f.Scaling == nil {
		t.Fatal("scaling table missing")
	}
	if got := f.Scaling.GOMAXPROCS; len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("gomaxprocs = %v, want [1 2 4]", got)
	}
	if len(f.Scaling.Rows) != 2 {
		t.Fatalf("want 2 rows, got %+v", f.Scaling.Rows)
	}
	row := f.Scaling.Rows[0] // sorted: muller-6 before toggles-16
	if row.Name != "SymbolicParallel/muller-6/w4" {
		t.Fatalf("row 0 is %q", row.Name)
	}
	if row.NsPerOp["1"] != 4000 || row.NsPerOp["4"] != 1000 {
		t.Fatalf("ns_per_op misparsed: %+v", row.NsPerOp)
	}
	if row.Speedup["2"] != 1.6 || row.Speedup["4"] != 4 {
		t.Fatalf("speedup wrong: %+v", row.Speedup)
	}
	if _, ok := row.Speedup["1"]; ok {
		t.Fatal("baseline must not carry a speedup column")
	}
}

func TestWriteBenchJSONScalingRejectsBadSpec(t *testing.T) {
	var out bytes.Buffer
	if err := writeBenchJSON(strings.NewReader(""), &out, "", "nope"); err == nil {
		t.Fatal("spec without procs= must error")
	}
	if err := writeBenchJSON(strings.NewReader(""), &out, "", "2=/does/not/exist"); err == nil {
		t.Fatal("missing sweep file must error")
	}
}

func TestWriteBenchJSONRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"counters": {"x": 1}, "spans": [{"name": "no-category"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := writeBenchJSON(strings.NewReader(sampleBenchOutput), &out, path, "")
	if err == nil {
		t.Fatal("invalid snapshot must be rejected")
	}
}
