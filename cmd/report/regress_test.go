package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// writeRecord marshals a minimal bench-json record to a temp file.
func writeRecord(t *testing.T, name string, benches map[string]float64) string {
	t.Helper()
	rec := benchFile{Suite: "synth", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4}
	var names []string
	for bname := range benches {
		names = append(names, bname)
	}
	sort.Strings(names)
	for _, bname := range names {
		rec.Benchmarks = append(rec.Benchmarks,
			benchResult{Name: bname, Iterations: 10, NsPerOp: benches[bname]})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegressCleanRun(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"SolveCSC/ring":     2000,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1100, // +10%, under the 15% default
		"SolveCSC/ring":     1800, // faster
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 0); err != nil {
		t.Fatalf("clean comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regress: OK") {
		t.Fatalf("missing OK banner:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("spurious regression mark:\n%s", out.String())
	}
}

func TestRegressTripsPastThreshold(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"SolveCSC/ring":     2000,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1300, // +30%
		"SolveCSC/ring":     2000,
	})
	var out bytes.Buffer
	err := runRegress(&out, oldP, newP, 0.15, 0)
	if err == nil {
		t.Fatalf("+30%% must trip the 15%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "FullFlow/vme-read") {
		t.Fatalf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("table does not mark the regression:\n%s", out.String())
	}
	// The same delta passes a looser gate.
	out.Reset()
	if err := runRegress(&out, oldP, newP, 0.5, 0); err != nil {
		t.Fatalf("+30%% must pass a 50%% gate: %v", err)
	}
}

func TestRegressOneSidedNamesAreInformational(t *testing.T) {
	oldP := writeRecord(t, "old.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"Removed/bench":     500,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"FullFlow/vme-read": 1000,
		"Added/bench":       99999,
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 0); err != nil {
		t.Fatalf("one-sided names must not fail the gate: %v", err)
	}
	if !strings.Contains(out.String(), "Removed/bench") || !strings.Contains(out.String(), "Added/bench") {
		t.Fatalf("one-sided names not reported:\n%s", out.String())
	}
}

func TestRegressMinNsFloorIsNotGated(t *testing.T) {
	// A sub-microsecond baseline measured at low iteration counts is timer
	// overhead, not the benchmark: it must never trip the gate.
	oldP := writeRecord(t, "old.json", map[string]float64{
		"ObsDisabledOverhead/counter": 0.5,
		"FullFlow/vme-read":           1e6,
	})
	newP := writeRecord(t, "new.json", map[string]float64{
		"ObsDisabledOverhead/counter": 120, // 240× "slower" — pure timer noise
		"FullFlow/vme-read":           1e6,
	})
	var out bytes.Buffer
	if err := runRegress(&out, oldP, newP, 0.15, 1000); err != nil {
		t.Fatalf("sub-floor baseline must not gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "below -min-ns") {
		t.Fatalf("floor not reported:\n%s", out.String())
	}
	// With the floor off, the same delta trips.
	out.Reset()
	if err := runRegress(&out, oldP, newP, 0.15, 0); err == nil {
		t.Fatal("with min-ns 0 the delta must gate")
	}
}

func TestRegressRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := runRegress(&out, "/does/not/exist.json", "/also/missing.json", 0.15, 0); err == nil {
		t.Fatal("missing files must error")
	}
	empty := t.TempDir() + "/empty.json"
	if err := os.WriteFile(empty, []byte(`{"suite":"synth","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runRegress(&out, empty, empty, 0.15, 0); err == nil {
		t.Fatal("empty record must error")
	}
	good := writeRecord(t, "good.json", map[string]float64{"A": 1})
	if err := runRegress(&out, good, good, 0, 0); err == nil {
		t.Fatal("non-positive threshold must error")
	}
}

// TestRegressRejectsDuplicateNames: the baseline is a map by name, so a
// record naming one benchmark twice would compare every duplicate against
// the last one's timing — it is refused instead.
func TestRegressRejectsDuplicateNames(t *testing.T) {
	rec := benchFile{Suite: "synth", Benchmarks: []benchResult{
		{Name: "SymbolicVsExplicit/explicit/toggles", NsPerOp: 100},
		{Name: "SymbolicVsExplicit/explicit/toggles", NsPerOp: 9000},
	}}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dup := t.TempDir() + "/dup.json"
	if err := os.WriteFile(dup, data, 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeRecord(t, "good.json", map[string]float64{"A": 1})
	var out bytes.Buffer
	for _, pair := range [][2]string{{dup, good}, {good, dup}} {
		err := runRegress(&out, pair[0], pair[1], 0.15, 0)
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("regress %s vs %s: want a duplicate-name error, got %v", pair[0], pair[1], err)
		}
	}
}
