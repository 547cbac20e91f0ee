package ts_test

import (
	"fmt"
	"os"
	"path/filepath"
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

// Choice between two outputs is a persistency violation (needs an arbiter,
// Section 2.1); choice between two inputs is fine.
func TestPersistencyRules(t *testing.T) {
	build := func(kind stg.Kind) *ts.SG {
		g := stg.New("arb")
		g.AddSignal("a", kind)
		g.AddSignal("b", kind)
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
		sg, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	if in := build(stg.Input); !in.IsPersistent() {
		t.Fatal("input-input conflict is allowed (environment choice)")
	}
	out := build(stg.Output)
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
	g := stg.New("mix")
	g.AddSignal("i", stg.Input)
	g.AddSignal("o", stg.Output)
	ip := g.Rise("i")
	op := g.Rise("o")
	im := g.Fall("i")
	om := g.Fall("o")
	n := g.Net
	p0 := n.AddPlace("p0", 1)
	n.ArcPT(p0, ip)
	n.ArcPT(p0, op)
	n.Implicit(ip, im, 0)
	n.Implicit(op, om, 0)
	n.ArcTP(im, p0)
	n.ArcTP(om, p0)
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range sg.PersistencyViolations() {
		if v.Disabled.Name == "i+" && v.Disabler.Name == "o+" {
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
