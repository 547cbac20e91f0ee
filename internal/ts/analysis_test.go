package ts_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

func readSG(t *testing.T) *ts.SG {
	t.Helper()
	sg, err := reach.BuildSG(vme.ReadSTG(), reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestCodeOps(t *testing.T) {
	var c ts.Code
	c = c.Set(3, true)
	if !c.Bit(3) || c.Bit(2) {
		t.Fatal("Set/Bit broken")
	}
	c = c.Flip(3)
	if c != 0 {
		t.Fatal("Flip broken")
	}
	c = c.Set(0, true).Set(4, true)
	if c.String(5) != "10001" {
		t.Fatalf("String = %q", c.String(5))
	}
}

func TestReadCycleCSC(t *testing.T) {
	sg := readSG(t)
	usc := sg.USCConflicts()
	csc := sg.CSCConflicts()
	if len(usc) != 1 {
		t.Fatalf("USC conflicts = %d, want 1", len(usc))
	}
	if len(csc) != 1 {
		t.Fatalf("CSC conflicts = %d, want 1", len(csc))
	}
	if sg.HasCSC() || sg.HasUSC() {
		t.Fatal("read cycle must report the coding conflict")
	}
	// The witnessing signal must be a non-input (LDS or D).
	w := csc[0].Signal
	name := sg.Signals[w].Name
	if name != "LDS" && name != "D" {
		t.Fatalf("witness signal %s, want LDS or D", name)
	}
	if csc[0].String() == "" || usc[0].String() == "" {
		t.Fatal("conflicts must render")
	}
}

func TestReadCyclePersistent(t *testing.T) {
	sg := readSG(t)
	if !sg.IsPersistent() {
		t.Fatalf("read cycle is persistent; got %v", sg.PersistencyViolations())
	}
	imp := sg.CheckImplementability()
	if imp.OK() {
		t.Fatal("CSC conflict must make implementability fail")
	}
	if imp.CSC || !imp.Persistent || !imp.DeadlockFree || !imp.Consistent {
		t.Fatalf("unexpected implementability report: %v", imp)
	}
	if !strings.Contains(imp.String(), "csc=NO") {
		t.Fatalf("report rendering: %s", imp)
	}
}

// choiceSTG is a free choice between a+ and b+ out of one marked place,
// each pulse returning the token; a and b have the given kinds.
func choiceSTG(kindA, kindB stg.Kind) *stg.STG {
	g := stg.New("choice")
	g.AddSignal("a", kindA)
	g.AddSignal("b", kindB)
	ap := g.Rise("a")
	bp := g.Rise("b")
	am := g.Fall("a")
	bm := g.Fall("b")
	n := g.Net
	p0 := n.AddPlace("p0", 1)
	n.ArcPT(p0, ap)
	n.ArcPT(p0, bp)
	n.Implicit(ap, am, 0)
	n.Implicit(bp, bm, 0)
	n.ArcTP(am, p0)
	n.ArcTP(bm, p0)
	return g
}

func buildSG(t *testing.T, g *stg.STG) *ts.SG {
	t.Helper()
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// Choice between two outputs is a persistency violation (needs an arbiter,
// Section 2.1); choice between two inputs is fine.
func TestPersistencyRules(t *testing.T) {
	if in := buildSG(t, choiceSTG(stg.Input, stg.Input)); !in.IsPersistent() {
		t.Fatal("input-input conflict is allowed (environment choice)")
	}
	out := buildSG(t, choiceSTG(stg.Output, stg.Output))
	v := out.PersistencyViolations()
	if len(v) == 0 {
		t.Fatal("output-output conflict must violate persistency")
	}
	if v[0].String() == "" {
		t.Fatal("violation must render")
	}
}

// A non-input disabling an input violates condition (b).
func TestPersistencyInputDisabledByOutput(t *testing.T) {
	sg := buildSG(t, choiceSTG(stg.Input, stg.Output))
	found := false
	for _, v := range sg.PersistencyViolations() {
		if v.Disabled.Name == "a+" && v.Disabler.Name == "b+" {
			found = true
		}
	}
	if !found {
		t.Fatalf("output disabling input must be reported; got %v", sg.PersistencyViolations())
	}
}

func TestSGHelpers(t *testing.T) {
	sg := readSG(t)
	if sg.NumArcs() == 0 || sg.NumStates() != 14 {
		t.Fatal("basic counters broken")
	}
	if sg.SignalIndex("LDS") < 0 || sg.SignalIndex("nope") != -1 {
		t.Fatal("SignalIndex broken")
	}
	in := sg.In()
	totalIn := 0
	for _, arcs := range in {
		totalIn += len(arcs)
	}
	if totalIn != sg.NumArcs() {
		t.Fatal("In() must mirror Out()")
	}
	if len(sg.Deadlocks()) != 0 {
		t.Fatal("read SG deadlock-free")
	}
	if sg.HasDummy() {
		t.Fatal("read SG has no dummies")
	}
	if !strings.Contains(sg.String(), "14 states") {
		t.Fatalf("String: %s", sg)
	}
	if !strings.Contains(sg.Dump(), "10110") {
		t.Fatal("Dump must contain the conflict code")
	}
	// Initial state excitation: only DSr.
	dir, ok := sg.Excited(sg.Initial, sg.SignalIndex("DSr"))
	if !ok || dir != stg.Rise {
		t.Fatal("DSr+ must be excited initially")
	}
	if _, ok := sg.Excited(sg.Initial, sg.SignalIndex("LDS")); ok {
		t.Fatal("LDS must not be excited initially")
	}
}

// TestHasUSCMatchesPairList checks HasUSC and HasCSC, which stop at the
// first shared code and at the first code with two excitation masks,
// against the full USC and CSC pair lists on the testdata corpus and the
// gen STG families, before and after dummy contraction. Every CSC pair's
// witness must be the one the per-signal scan cscWitnessScan finds, and
// every USC pair the scan finds a witness for must be a CSC pair.
func TestHasUSCMatchesPairList(t *testing.T) {
	specs := corpusSpecs(t)
	verdicts := map[bool]int{}
	cscVerdicts := map[bool]int{}
	for name, g := range specs {
		raw, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			continue // inconsistent or unsafe specs have no state graph
		}
		contracted, err := ts.ContractDummies(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sg := range []*ts.SG{raw, contracted} {
			want := len(sg.USCConflicts()) == 0
			if got := sg.HasUSC(); got != want {
				t.Fatalf("%s: HasUSC = %v, but %d USC pairs", name, got, len(sg.USCConflicts()))
			}
			verdicts[want]++

			csc := sg.CSCConflicts()
			if got := sg.HasCSC(); got != (len(csc) == 0) {
				t.Fatalf("%s: HasCSC = %v, but %d CSC pairs", name, got, len(csc))
			}
			cscVerdicts[len(csc) == 0]++
			for _, c := range csc {
				if sig, ok := cscWitnessScan(sg, c.A, c.B); !ok || sig != c.Signal {
					t.Fatalf("%s: %v, but the scan finds witness %d (%v)", name, c, sig, ok)
				}
			}
			witnessed := 0
			for _, c := range sg.USCConflicts() {
				if _, ok := cscWitnessScan(sg, c.A, c.B); ok {
					witnessed++
				}
			}
			if witnessed != len(csc) {
				t.Fatalf("%s: the scan finds %d CSC pairs, CSCConflicts %d", name, witnessed, len(csc))
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("corpus exercises one USC verdict only: %v", verdicts)
	}
	if cscVerdicts[true] == 0 || cscVerdicts[false] == 0 {
		t.Fatalf("corpus exercises one CSC verdict only: %v", cscVerdicts)
	}
}

// cscWitnessScan is the reference witness search: the first output or
// internal signal, in signal order, excited in one of states a and b only.
func cscWitnessScan(g *ts.SG, a, b int) (int, bool) {
	for sig, s := range g.Signals {
		if s.Kind != stg.Output && s.Kind != stg.Internal {
			continue
		}
		_, exA := g.Excited(a, sig)
		_, exB := g.Excited(b, sig)
		if exA != exB {
			return sig, true
		}
	}
	return -1, false
}

// corpusSpecs returns the testdata specifications and the gen families
// MullerPipeline(1..5) and CSCRing(2..4), by name.
func corpusSpecs(t *testing.T) map[string]*stg.STG {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	specs := map[string]*stg.STG{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs[filepath.Base(path)] = g
	}
	for n := 1; n <= 5; n++ {
		specs[fmt.Sprintf("muller-%d", n)] = gen.MullerPipeline(n)
	}
	for k := 2; k <= 4; k++ {
		specs[fmt.Sprintf("cscring-%d", k)] = gen.CSCRing(k)
	}
	return specs
}

// dummySTG runs output a's pulse a+ a- as a cycle next to dummies. With
// choice false, dummies d1 and d2 cycle concurrently with it, so no event
// disables another. With choice true, a+ and dummy d share a marked place:
// a+ disables d, which only the dummy name rule sees, and d, which hands
// the token on to dummy e, disables a+.
func dummySTG(choice bool) *stg.STG {
	g := stg.New("dummies")
	g.AddSignal("a", stg.Output)
	ap, am := g.Rise("a"), g.Fall("a")
	n := g.Net
	if !choice {
		d1, d2 := g.AddDummy("d1"), g.AddDummy("d2")
		n.Implicit(ap, am, 0)
		n.Implicit(am, ap, 1)
		n.Implicit(d1, d2, 0)
		n.Implicit(d2, d1, 1)
		return g
	}
	d, e := g.AddDummy("d"), g.AddDummy("e")
	p0 := n.AddPlace("p0", 1)
	n.ArcPT(p0, ap)
	n.ArcPT(p0, d)
	n.Implicit(ap, am, 0)
	n.ArcTP(am, p0)
	n.Implicit(d, e, 0)
	n.ArcTP(e, p0)
	return g
}

// TestIsPersistentMatchesPairScan checks IsPersistent's mask rule against
// the pair scan of PersistencyViolations, which shares no code with it: on
// the raw and dummy-contracted state graphs of the corpus, of the choices
// between outputs, inputs and an input and an output, and of dummies
// running concurrently with a signal or in choice with it; and on every one
// of those graphs with one arc deleted, which stays consistent and breaks
// persistency wherever the deleted arc was an event's only continuation.
func TestIsPersistentMatchesPairScan(t *testing.T) {
	specs := corpusSpecs(t)
	specs["choice-outputs"] = choiceSTG(stg.Output, stg.Output)
	specs["choice-inputs"] = choiceSTG(stg.Input, stg.Input)
	specs["choice-input-output"] = choiceSTG(stg.Input, stg.Output)
	specs["dummies-concurrent"] = dummySTG(false)
	specs["dummies-choice"] = dummySTG(true)
	check := func(name string, sg *ts.SG) bool {
		t.Helper()
		want := len(sg.PersistencyViolations()) == 0
		if got := sg.IsPersistent(); got != want {
			t.Fatalf("%s: IsPersistent = %v, but %d persistency violations: %v",
				name, got, len(sg.PersistencyViolations()), sg.PersistencyViolations())
		}
		return want
	}
	verdicts := map[bool]int{}
	dummyVerdicts := map[bool]int{}
	for name, g := range specs {
		raw, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		contracted, err := ts.ContractDummies(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs := []*ts.SG{raw}
		if contracted != raw {
			graphs = append(graphs, contracted)
		}
		for _, sg := range graphs {
			verdicts[check(name, sg)]++
			for s, out := range sg.Out {
				for k, a := range out {
					sg.Out[s] = slices.Delete(slices.Clone(out), k, k+1)
					v := check(fmt.Sprintf("%s without %s from state %d", name, a.Event, s), sg)
					verdicts[v]++
					if sg.HasDummy() {
						dummyVerdicts[v]++
					}
					sg.Out[s] = out
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 || dummyVerdicts[true] == 0 || dummyVerdicts[false] == 0 {
		t.Fatalf("one persistency verdict only: %v, with dummy arcs %v", verdicts, dummyVerdicts)
	}
	t.Logf("verdicts %v, with dummy arcs %v", verdicts, dummyVerdicts)
}
