package encoding

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

func mustSG(t *testing.T, g *stg.STG) *ts.SG {
	t.Helper()
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestFig7CscInsertion reproduces the paper's manual solution: csc0+ right
// before LDS+ and csc0- right before D-. The resulting SG must satisfy all
// implementability properties (Figure 7).
func TestFig7CscInsertion(t *testing.T) {
	g := vme.ReadSTG()
	ldsP := g.Net.TransitionIndex("LDS+")
	dM := g.Net.TransitionIndex("D-")
	if ldsP < 0 || dM < 0 {
		t.Fatal("missing transitions in read STG")
	}
	g2, err := InsertSignal(g, "csc0", ldsP, dM)
	if err != nil {
		t.Fatal(err)
	}
	if g2.SignalIndex("csc0") != 5 {
		t.Fatal("csc0 must be signal index 5 (paper code order)")
	}
	sg := mustSG(t, g2)
	imp := sg.CheckImplementability()
	if !imp.OK() {
		t.Fatalf("Fig 7 SG must be implementable: %v\n%s", imp, ConflictSummary(sg))
	}
	if !imp.USC {
		t.Fatal("Fig 7 SG has unique state coding")
	}
	// Two new events lengthen the cycle: more states than the original 14.
	if sg.NumStates() <= 14 {
		t.Fatalf("inserted SG has %d states, want > 14", sg.NumStates())
	}
	// The original STG is untouched.
	if len(g.Signals) != 5 {
		t.Fatal("InsertSignal must not mutate its input")
	}
}

func TestInsertSignalValidation(t *testing.T) {
	g := vme.ReadSTG()
	if _, err := InsertSignal(g, "x", 1, 1); err == nil {
		t.Fatal("rise==fall must be rejected")
	}
	if _, err := InsertSignal(g, "x", -1, 2); err == nil {
		t.Fatal("out of range must be rejected")
	}
}

// TestConcurrencyReduction reproduces the paper's alternative: delaying
// DTACK- until LDS- fires removes the conflicting state.
func TestConcurrencyReduction(t *testing.T) {
	g := vme.ReadSTG()
	dtackM := g.Net.TransitionIndex("DTACK-")
	ldsM := g.Net.TransitionIndex("LDS-")
	g2, err := DelayTransition(g, dtackM, ldsM)
	if err != nil {
		t.Fatal(err)
	}
	sg := mustSG(t, g2)
	if !sg.HasCSC() {
		t.Fatalf("concurrency reduction must resolve CSC:\n%s", ConflictSummary(sg))
	}
	imp := sg.CheckImplementability()
	if !imp.OK() {
		t.Fatalf("reduced spec must remain implementable: %v", imp)
	}
	// Fewer states than the original 14 (one interleaving removed).
	if sg.NumStates() >= 14 {
		t.Fatalf("reduction must shrink the SG, got %d states", sg.NumStates())
	}
}

func TestDelayInputRejected(t *testing.T) {
	g := vme.ReadSTG()
	dsrP := g.Net.TransitionIndex("DSr+")
	ldsM := g.Net.TransitionIndex("LDS-")
	if _, err := DelayTransition(g, dsrP, ldsM); err == nil {
		t.Fatal("delaying an input transition must be rejected")
	}
}

// TestSolveCSC checks the automatic solver: it must find a one-signal
// solution for the READ cycle with all properties preserved.
func TestSolveCSC(t *testing.T) {
	sol, err := SolveCSC(vme.ReadSTG(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.SG.HasCSC() {
		t.Fatal("solver result lacks CSC")
	}
	if !sol.SG.CheckImplementability().OK() {
		t.Fatal("solver result not implementable")
	}
	if !strings.Contains(sol.Description, "csc0") {
		t.Fatalf("description = %q", sol.Description)
	}
	if sol.Literals <= 0 {
		t.Fatal("literal cost must be positive")
	}
	if sol.STG.SignalIndex("csc0") < 0 {
		t.Fatal("solution must contain csc0")
	}
}

// The read/write spec needs two state signals: the greedy continuation path.
func TestSolveCSCTwoSignals(t *testing.T) {
	sol, err := SolveCSC(vme.ReadWriteSTG(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.SG.HasCSC() || !sol.SG.CheckImplementability().OK() {
		t.Fatal("read/write solution must be implementable")
	}
	if sol.STG.SignalIndex("csc0") < 0 || sol.STG.SignalIndex("csc1") < 0 {
		t.Fatalf("two signals expected: %s", sol.Description)
	}
	if !strings.Contains(sol.Description, ";") {
		t.Fatalf("two-step description expected: %q", sol.Description)
	}
	// Ranked solutions: all returned candidates are complete and sorted by
	// literal cost.
	sols, err := SolutionsOpts(vme.ReadWriteSTG(), 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sols {
		if !s.SG.HasCSC() {
			t.Fatalf("solution %d incomplete", i)
		}
		if i > 0 && sols[i-1].Literals > s.Literals {
			t.Fatal("solutions must be sorted by cost")
		}
	}
}

// A spec that already has CSC is returned unchanged.
func TestSolveCSCNoop(t *testing.T) {
	g := stg.New("hs")
	g.AddSignal("r", stg.Input)
	g.AddSignal("a", stg.Output)
	rp := g.Rise("r")
	ap := g.Rise("a")
	rm := g.Fall("r")
	am := g.Fall("a")
	g.Net.Chain(rp, ap, rm, am)
	g.Net.Implicit(am, rp, 1)
	sol, err := SolveCSC(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Description != "" || sol.STG.SignalIndex("csc0") >= 0 {
		t.Fatal("CSC-clean spec must need no insertion")
	}
}

// TestSolveByReduction: the automatic concurrency-reduction solver finds the
// paper's solution shape (delaying DTACK- class transitions) for the READ
// cycle, shrinking the state space instead of adding a signal.
func TestSolveByReduction(t *testing.T) {
	g := vme.ReadSTG()
	sol, err := SolveByReduction(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.SG.HasCSC() || !sol.SG.CheckImplementability().OK() {
		t.Fatal("reduction solution must be implementable")
	}
	if len(sol.STG.Signals) != len(g.Signals) {
		t.Fatal("concurrency reduction must not add signals")
	}
	if sol.SG.NumStates() >= 14 {
		t.Fatalf("reduction must shrink the SG, got %d states", sol.SG.NumStates())
	}
	if !strings.Contains(sol.Description, "delay") {
		t.Fatalf("description = %q", sol.Description)
	}
	// The reduced spec synthesizes and verifies end to end.
	nl, err := logic.Synthesize(sol.SG, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Verify(nl, sol.STG, sim.Options{})
	if err != nil || !res.OK() {
		t.Fatalf("reduced-spec circuit must verify: %v %v", err, res)
	}
}

// Reduction is honest about failure: a spec whose conflict is sequential (no
// concurrency to reduce) cannot be solved this way.
func TestSolveByReductionFails(t *testing.T) {
	// x+ ; y+ ; x- ; y- ; x+ ... has CSC conflicts that no ordering fixes
	// (there is no concurrency at all).
	g := stg.New("seq")
	g.AddSignal("x", stg.Output)
	g.AddSignal("y", stg.Output)
	xp := g.Rise("x")
	yp := g.Rise("y")
	xm := g.Fall("x")
	ym := g.Fall("y")
	xp2 := g.AddTransition(0, stg.Rise)
	yp2 := g.AddTransition(1, stg.Rise)
	xm2 := g.Fall("x")
	ym2 := g.Fall("y")
	g.Net.Chain(xp, yp, xm, ym, xp2, yp2, xm2, ym2)
	g.Net.Implicit(ym2, xp, 1)
	sg := mustSG(t, g)
	if sg.HasCSC() {
		t.Skip("spec unexpectedly has CSC")
	}
	if _, err := SolveByReduction(g, 2, Options{}); err == nil {
		t.Fatal("sequential conflict must defeat concurrency reduction")
	}
}

func TestConflictSummary(t *testing.T) {
	sg := mustSG(t, vme.ReadSTG())
	s := ConflictSummary(sg)
	if !strings.Contains(s, "10110") {
		t.Fatalf("summary must mention the conflict code: %s", s)
	}
	sol, err := SolveCSC(vme.ReadSTG(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ConflictSummary(sol.SG) != "CSC satisfied" {
		t.Fatal("clean SG summary")
	}
}

// TestCostedCounter pins how many solved candidates the search derives
// complex-gate logic for, to cost them in literals: on vme-read-write, with
// the five-solution limit the flow uses, 68 isomorphism classes of
// candidates reach zero conflicts. It also pins the account of the whole
// search: every one of the 3,140 insertion pairs is judged, 2,250 of them
// explored on the product (one per class of isomorphic pairs), each
// rejection is counted under exactly one reason, and at most the 68 costed
// candidates plus the ranked survivors of the search's rounds are rebuilt
// as STGs. The engine span carries the same totals.
func TestCostedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	root := reg.Root("flow:test")
	if _, err := SolutionsOpts(vme.ReadWriteSTG(), 0, 5, Options{Obs: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := reg.Snapshot()
	c := snap.Counters
	if c["encoding.candidates"] != 3140 || c["encoding.explored"] != 2250 || c["encoding.costed"] != 68 {
		t.Fatalf("encoding.candidates = %d, explored = %d, costed = %d; want 3140, 2250 and 68",
			c["encoding.candidates"], c["encoding.explored"], c["encoding.costed"])
	}
	if c["encoding.rebuilt"] < 68 || c["encoding.rebuilt"] > 83 {
		t.Fatalf("encoding.rebuilt = %d, want 68..83", c["encoding.rebuilt"])
	}
	if c["encoding.memo_misses"] != 68 {
		t.Fatalf("encoding.memo_misses = %d, want one per costed class", c["encoding.memo_misses"])
	}
	rejected := int64(0)
	for r := rejectInvalid; r < numReasons; r++ {
		rejected += c["encoding.rejected_"+reasonNames[r]]
	}
	if c["encoding.rejected_inconsistent"] == 0 || c["encoding.rejected_no_progress"] == 0 {
		t.Fatalf("vme-read-write rejects inconsistent and no-progress candidates: %v", c)
	}
	if rejected >= c["encoding.candidates"] {
		t.Fatalf("%d rejections of %d candidates leave none accepted", rejected, c["encoding.candidates"])
	}
	for _, sp := range snap.Spans {
		if sp.Name != "engine:encoding" {
			continue
		}
		attrs := map[string]string{}
		for _, kv := range sp.Attrs {
			attrs[kv.Key] = kv.Value
		}
		for _, name := range []string{"candidates", "explored", "rebuilt", "costed", "memo_hits", "memo_misses",
			"rejected_inconsistent", "rejected_no_progress", "twin_skips", "budget_checks"} {
			if want := strconv.FormatInt(c["encoding."+name], 10); attrs[name] != want {
				t.Fatalf("engine:encoding %s = %q, want %s", name, attrs[name], want)
			}
		}
		return
	}
	t.Fatal("no engine:encoding span")
}
