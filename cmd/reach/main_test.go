package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/obs"
)

const muller2 = `
.model muller2
.inputs r0 r1
.outputs a0 a1
.graph
r0+ a0+
a0+ r0- r1+
r0- a0-
a0- r0+
r1+ a1+
a1+ r1-
r1- a1-
a1- r0+ r1+
.marking { <a0-,r0+> <a1-,r0+> <a1-,r1+> }
.end
`

func TestReachAllEngines(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader(muller2), &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"explicit", "symbolic", "unfold", "stubborn", "0 deadlocks"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	// Explicit and symbolic state counts agree.
	if !strings.Contains(s, "states") {
		t.Fatal("state counts expected")
	}
}

// unboundedNet puts one more token in q or r on every firing: it is not
// safe, and not bounded either.
const unboundedNet = `
.model unbounded
.outputs a
.graph
p a+ a-
a+ p q
a- p r
.marking { p }
.end
`

// TestReachAllEnginesUnsafeNet: every engine finishes on a net that is not
// safe. The symbolic engine reports the second token its fixpoint stops
// short of, the unfolding stops at its first second token instead of
// growing until the deadline, and the explicit engines at their 256th
// token.
func TestReachAllEnginesUnsafeNet(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-timeout", "10s"}, strings.NewReader(unboundedNet), &out, &errb); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"partial: 4 states after 3 iterations",
		"symbolic: net not safe: firing a+ puts a second token in q",
		"unfold: net not safe: firing a+ puts a second token in q",
		"firing a+ puts a 256th token in q",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestReachSymbolicSiftAndStats(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-engine", "symbolic", "-sift"}, strings.NewReader(muller2), &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"symbolic", "bdd", "cache-hit=", "gc=", "reorders="} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in symbolic report:\n%s", want, s)
		}
	}
	// Same state count with and without reordering.
	var plain bytes.Buffer
	if err := run([]string{"-engine", "symbolic"}, strings.NewReader(muller2), &plain, &errb); err != nil {
		t.Fatal(err)
	}
	wantStates := "16 states"
	if !strings.Contains(s, wantStates) || !strings.Contains(plain.String(), wantStates) {
		t.Fatalf("sifted and plain symbolic runs must both report %q:\n%s\n%s", wantStates, s, plain.String())
	}
}

func TestReachSingleEngine(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-engine", "unfold"}, strings.NewReader(muller2), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "explicit") {
		t.Fatal("engine filter broken")
	}
}

func TestReachParseError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader("junk"), &out, &errb); err == nil {
		t.Fatal("parse error expected")
	}
}

// TestReachUsageError pins the exit-2 contract: a bad flag is reported as a
// cli.Usage error and the diagnostic lands on stderr, not stdout.
func TestReachUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-no-such-flag"}, strings.NewReader(muller2), &out, &errb)
	var usage cli.Usage
	if !errors.As(err, &usage) {
		t.Fatalf("want cli.Usage, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("usage diagnostics leaked to stdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "no-such-flag") {
		t.Fatalf("flag diagnostic missing from stderr:\n%s", errb.String())
	}
}

// TestReachTimeoutAbort pins the budget-abort contract: an already-expired
// deadline makes every engine report a wall-limit abort and the run fail
// with a budget-taxonomy error, while the abort rows still print.
func TestReachTimeoutAbort(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-timeout", "1ns"}, strings.NewReader(muller2), &out, &errb)
	if err == nil {
		t.Fatal("expired timeout must fail the run")
	}
	var le budget.ErrLimit
	if !errors.As(err, &le) || le.Resource != budget.Wall {
		t.Fatalf("want wall ErrLimit, got %v", err)
	}
	if !strings.Contains(out.String(), "aborted") && !strings.Contains(out.String(), "error") {
		t.Fatalf("abort rows expected in output:\n%s", out.String())
	}
}

// TestReachMetricsExport validates the instrumented engine comparison: one
// flow:reach → phase:analysis chain over all engine spans, with non-zero
// counters for each engine and the BDD kernel.
func TestReachMetricsExport(t *testing.T) {
	dir := t.TempDir()
	mpath, tpath := dir+"/m.json", dir+"/t.json"
	var out, errOut bytes.Buffer
	err := run([]string{"-metrics", mpath, "-trace-json", tpath},
		strings.NewReader(muller2), &out, &errOut)
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
	for _, c := range []string{
		"reach.states", "symbolic.iterations", "bdd.cache_lookups",
		"unfold.events", "stubborn.states",
	} {
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
