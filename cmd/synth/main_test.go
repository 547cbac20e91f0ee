package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/ts"
)

const vmeRead = `
.model vme-read
.inputs DSr LDTACK
.outputs DTACK LDS D
.graph
DSr+ LDS+
LDS+ LDTACK+
LDTACK+ D+
D+ DTACK+
DTACK+ DSr-
DSr- D-
D- DTACK- LDS-
DTACK- DSr+
LDS- LDTACK-
LDTACK- LDS+
.marking { <DTACK-,DSr+> <LDTACK-,LDS+> }
.end
`

func TestSynthDefault(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"csc0", "speed-independent", "DTACK = D"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestSynthQuietStyles(t *testing.T) {
	for _, style := range []string{"complex", "gc", "rs"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-style", style, "-quiet"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
			t.Fatalf("style %s: %v", style, err)
		}
		if !strings.Contains(out.String(), "=") {
			t.Fatalf("style %s: no equations", style)
		}
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-style", "bogus"}, strings.NewReader(vmeRead), &out, &errOut); err == nil {
		t.Fatal("bogus style must error")
	}
}

func TestSynthReduceMethod(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-method", "reduce"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "delay") {
		t.Fatalf("reduction description expected:\n%s", out.String())
	}
	if strings.Contains(out.String(), "csc0") {
		t.Fatal("concurrency reduction must not add signals")
	}
}

func TestSynthSpecOut(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-quiet", "-spec", "-"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ".internal csc0") {
		t.Fatalf("final spec with csc0 expected:\n%s", out.String())
	}
}

func TestSynthEqnOut(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-quiet", "-out", "-"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ".internal csc0") || !strings.Contains(out.String(), ".inputs DSr") {
		t.Fatalf("netlist header expected:\n%s", out.String())
	}
}

func TestSynthMapped(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-maxfanin", "2"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "max fan-in 2") {
		t.Fatalf("mapped output expected:\n%s", out.String())
	}
}

func TestSynthBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-no-such-flag"}, strings.NewReader(vmeRead), &out, &errOut); err == nil {
		t.Fatal("unknown flag must error")
	}
	if out.Len() != 0 {
		t.Fatalf("flag diagnostics leaked to stdout:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "-no-such-flag") {
		t.Fatalf("usage text expected on stderr:\n%s", errOut.String())
	}
}

// TestSynthBadFlagIsUsage pins the exit-2 mapping: flag errors surface as
// cli.Usage so main exits with status 2.
func TestSynthBadFlagIsUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-no-such-flag"}, strings.NewReader(vmeRead), &out, &errOut)
	var usage cli.Usage
	if !errors.As(err, &usage) {
		t.Fatalf("want cli.Usage, got %v", err)
	}
}

// TestSynthMaxStatesAbort pins the budget-abort contract: a state ceiling
// below the reachable space fails with a typed limit error and the partial
// analysis still prints.
func TestSynthMaxStatesAbort(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-maxstates", "4"}, strings.NewReader(vmeRead), &out, &errOut)
	var le budget.ErrLimit
	if !errors.As(err, &le) || le.Resource != budget.States {
		t.Fatalf("want states ErrLimit, got %v", err)
	}
}

// TestSynthFallbackDegrades pins the ladder: with -fallback the same ceiling
// succeeds (exit 0) and reports the degraded analysis trace instead of a
// netlist.
func TestSynthFallbackDegrades(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-maxstates", "4", "-fallback"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"degraded", "explicit", "symbolic"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in degraded report:\n%s", want, s)
		}
	}
	if strings.Contains(s, "DTACK = D") {
		t.Fatalf("degraded run must not report equations:\n%s", s)
	}
}

func TestSynthWorkersDeterministic(t *testing.T) {
	var ref, refErr bytes.Buffer
	if err := run([]string{"-workers", "1"}, strings.NewReader(vmeRead), &ref, &refErr); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"2", "4"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-workers", w}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if got, want := stripTiming(out.String()), stripTiming(ref.String()); got != want {
			t.Fatalf("workers=%s output differs:\n%s\nwant:\n%s", w, got, want)
		}
	}
}

// stripTiming drops the wall-clock line, the only run-dependent output.
func stripTiming(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "timing:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestSynthMetricsExport runs an instrumented flow and validates the
// exported snapshot: engine counters non-zero, hierarchy well-formed, and
// the trace file loadable as trace_event JSON.
func TestSynthMetricsExport(t *testing.T) {
	dir := t.TempDir()
	mpath, tpath := dir+"/m.json", dir+"/t.json"
	var out, errOut bytes.Buffer
	err := run([]string{"-metrics", mpath, "-trace-json", tpath},
		strings.NewReader(vmeRead), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.ValidateHierarchy(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"reach.states", "encoding.candidates", "logic.signals"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s is zero; counters: %v", c, snap.Counters)
		}
	}
	trace, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(trace); err != nil {
		t.Fatal(err)
	}
}

// TestSynthReduceMetricsExport pins the trace shape of the -method reduce
// path: same flow:synthesize root and phase spans as the insertion flow,
// with the reduction search's engine:encoding span and counters.
func TestSynthReduceMetricsExport(t *testing.T) {
	dir := t.TempDir()
	mpath := dir + "/m.json"
	var out, errOut bytes.Buffer
	err := run([]string{"-method", "reduce", "-metrics", mpath},
		strings.NewReader(vmeRead), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.ValidateHierarchy(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range snap.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"flow:synthesize", "phase:sg", "phase:encoding", "engine:encoding",
		"phase:logic", "phase:verify"} {
		if !names[want] {
			t.Fatalf("span %s missing from reduce flow; spans: %v", want, names)
		}
	}
	for _, c := range []string{"encoding.candidates", "encoding.costed", "encoding.rebuilt"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s is zero; counters: %v", c, snap.Counters)
		}
	}
}

// TestSynthReduceMatchesInsert: on every testdata spec that already has
// CSC neither method changes the spec, so -method reduce prints what
// -method insert prints, or fails the same way, also under -maxfanin 2.
func TestSynthReduceMatchesInsert(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.g")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, path := range files {
		g, err := cli.LoadSTG(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := reach.BuildSG(g, reach.Options{})
		if err == nil {
			sg, err = ts.ContractDummies(sg)
		}
		if err != nil || !sg.HasCSC() {
			continue
		}
		var outs [2]string
		var errs [2]error
		for i, method := range []string{"insert", "reduce"} {
			var out, errOut bytes.Buffer
			errs[i] = run([]string{"-method", method, "-maxfanin", "2", "-workers", "2", path}, nil, &out, &errOut)
			outs[i] = stripTiming(out.String())
		}
		if outs[0] != outs[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("%s: -method reduce differs from -method insert:\n%s(%v)\nvs\n%s(%v)",
				path, outs[1], errs[1], outs[0], errs[0])
		}
	}
}

// TestSynthReduceFallback: -fallback reaches the reduce method too, so a
// state ceiling degrades the analysis instead of failing.
func TestSynthReduceFallback(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-method", "reduce", "-fallback", "-maxstates", "5", "../../testdata/vme-read-write.g"},
		nil, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "degraded analysis") || !strings.Contains(s, "symbolic") {
		t.Fatalf("degraded analysis expected:\n%s", s)
	}
}

func TestSynthUnknownMethod(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-method", "bogus"}, strings.NewReader(vmeRead), &out, &errOut); err == nil {
		t.Fatal("unknown method must error")
	}
}

// TestSynthBudgetLine pins the budget-spend satellite: runs with a ceiling
// report "budget: states used/limit" on both the degraded and abort paths,
// and the degraded symbolic attempt carries its kernel stats detail.
func TestSynthBudgetLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-maxstates", "4", "-fallback"}, strings.NewReader(vmeRead), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "budget:        states 4/4") {
		t.Fatalf("missing budget spend line:\n%s", s)
	}
	if !strings.Contains(s, "iters=") || !strings.Contains(s, "peak-nodes=") {
		t.Fatalf("symbolic attempt missing kernel stats detail:\n%s", s)
	}

	out.Reset()
	err := run([]string{"-maxstates", "4"}, strings.NewReader(vmeRead), &out, &errOut)
	if err == nil {
		t.Fatal("capped run without -fallback must fail")
	}
	if !strings.Contains(out.String(), "budget:        states 4/4") {
		t.Fatalf("abort path missing budget spend line:\n%s", out.String())
	}
}
