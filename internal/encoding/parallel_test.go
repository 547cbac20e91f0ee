package encoding

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/stg"
	"repro/internal/vme"
)

var solverWorkerCounts = []int{2, 4, 8}

// doublePulseSeq builds a purely sequential two-signal spec whose cycle
// x+ y+ x- y- x+/1 y+/1 x-/1 y-/1 revisits every code twice: maximally
// conflict-rich for its size (8 states), so the solver needs two inserted
// signals. A cheap second generated model for the determinism suite.
func doublePulseSeq() *stg.STG {
	g := stg.New("dpseq")
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
	return g
}

// TestSolutionsDeterministicAcrossWorkers: the solution list —
// descriptions, literal costs, order, and the solved state graphs
// themselves — is identical at every worker count. Run under -race this
// also exercises the result slots and the costing in the pool's tasks
// concurrently.
func TestSolutionsDeterministicAcrossWorkers(t *testing.T) {
	models := []struct {
		name  string
		g     *stg.STG
		limit int
	}{
		{"vme-read", vme.ReadSTG(), 3},
		{"vme-read-write", vme.ReadWriteSTG(), 2}, // greedy multi-signal path
		{"cscring-2", gen.CSCRing(2), 2},
		{"dpseq", doublePulseSeq(), 3},
	}
	for _, mdl := range models {
		ref, err := SolutionsOpts(mdl.g, 0, mdl.limit, Options{})
		if err != nil {
			t.Fatalf("%s: one worker: %v", mdl.name, err)
		}
		for _, w := range solverWorkerCounts {
			got, err := SolutionsOpts(mdl.g, 0, mdl.limit, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s w=%d: %v", mdl.name, w, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%s w=%d: %d solutions, one worker found %d",
					mdl.name, w, len(got), len(ref))
			}
			for i := range ref {
				if got[i].Description != ref[i].Description {
					t.Fatalf("%s w=%d sol %d: description %q, want %q",
						mdl.name, w, i, got[i].Description, ref[i].Description)
				}
				if got[i].Literals != ref[i].Literals {
					t.Fatalf("%s w=%d sol %d: literals %d, want %d",
						mdl.name, w, i, got[i].Literals, ref[i].Literals)
				}
				if !reflect.DeepEqual(got[i].SG.States, ref[i].SG.States) ||
					!reflect.DeepEqual(got[i].SG.Out, ref[i].SG.Out) {
					t.Fatalf("%s w=%d sol %d: state graphs differ", mdl.name, w, i)
				}
				if canonicalSignature(got[i].STG) != canonicalSignature(ref[i].STG) {
					t.Fatalf("%s w=%d sol %d: solved STGs differ structurally", mdl.name, w, i)
				}
			}
		}
	}
}

// TestVMETieBreakPinned pins the ranking on Figure 7's VME READ spec: the
// (conflicts, literals, enumeration order) key picks the polarity-flipped
// variant of the paper's manual solution (8 literals), with the paper's own
// "+ before LDS+, - before D-" as the 9-literal runner-up. Any change to the
// enumeration order, the sentinel cost or the tie-break shows up here.
func TestVMETieBreakPinned(t *testing.T) {
	sols, err := SolutionsOpts(vme.ReadSTG(), 0, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("want 2 ranked solutions, got %d", len(sols))
	}
	if sols[0].Description != "insert csc0: + before D-, - before LDS+" || sols[0].Literals != 8 {
		t.Fatalf("winner = %q (%d literals)", sols[0].Description, sols[0].Literals)
	}
	if sols[1].Description != "insert csc0: + before LDS+, - before D-" || sols[1].Literals != 9 {
		t.Fatalf("runner-up = %q (%d literals)", sols[1].Description, sols[1].Literals)
	}
}

// TestCanonicalSignature pins the class oracle's isomorphism contract on
// the symmetric-insertion case: across an unmarked chain t -> u, "after t"
// and "before u" build the same net up to generated place names — equal
// signatures. Across a marked chain the token ends up on opposite sides of
// the new transition — different signatures.
func TestCanonicalSignature(t *testing.T) {
	chain := func(tokens int) *stg.STG {
		g := stg.New("chain")
		g.AddSignal("p", stg.Output)
		g.AddSignal("q", stg.Output)
		pp := g.Rise("p")
		qp := g.Rise("q")
		pm := g.Fall("p")
		qm := g.Fall("q")
		g.Net.Chain(pp, qp, pm, qm)
		g.Net.Implicit(qm, pp, 1)
		// Extra token position under test sits on the qp -> pm edge: Chain
		// made it unmarked; re-mark by adding tokens via a parallel place.
		if tokens > 0 {
			g.Net.Implicit(qp, pm, tokens)
		}
		return g
	}
	fall := Point{Before: true, Trans: 3} // before q-

	g := chain(0)
	after, err := InsertSignalAt(g, "x", Point{Before: false, Trans: 1}, fall) // after q+
	if err != nil {
		t.Fatal(err)
	}
	before, err := InsertSignalAt(g, "x", Point{Before: true, Trans: 2}, fall) // before p-
	if err != nil {
		t.Fatal(err)
	}
	if canonicalSignature(after) != canonicalSignature(before) {
		t.Fatal("symmetric insertions across an unmarked chain must share a signature")
	}

	gm := chain(1)
	afterM, err := InsertSignalAt(gm, "x", Point{Before: false, Trans: 1}, fall)
	if err != nil {
		t.Fatal(err)
	}
	beforeM, err := InsertSignalAt(gm, "x", Point{Before: true, Trans: 2}, fall)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalSignature(afterM) == canonicalSignature(beforeM) {
		t.Fatal("a marked chain place makes the two insertions semantically different")
	}
	if canonicalSignature(after) == canonicalSignature(afterM) {
		t.Fatal("initial marking must be part of the signature")
	}
}
