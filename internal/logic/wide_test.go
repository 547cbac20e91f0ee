package logic_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
)

// TestWideDerivationISOP exercises the BDD-ISOP minimization path: a Muller
// pipeline deep enough that the signal count exceeds the exact
// minimizer's window. Every derived cover must separate on-set from off-set exactly.
func TestWideDerivationISOP(t *testing.T) {
	g := gen.MullerPipeline(8) // 16 signals -> ISOP path
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := logic.DeriveAll(sg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 8 {
		t.Fatalf("8 output functions, got %d", len(fs))
	}
	for _, f := range fs {
		for _, m := range f.On {
			if !f.Cover.Eval(m) {
				t.Fatalf("%s: on-set minterm uncovered", f.Name)
			}
		}
		for _, m := range f.Off {
			if f.Cover.Eval(m) {
				t.Fatalf("%s: off-set minterm covered", f.Name)
			}
		}
	}
}

// The wide pipeline also synthesizes and verifies end to end (a stress test
// for the composition engine: 2^8 × markings composed states).
func TestWidePipelineSynthesis(t *testing.T) {
	g := gen.MullerPipeline(6)
	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sg.HasCSC() {
		t.Skip("pipeline spec unexpectedly lacks CSC")
	}
	nl, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Verify(nl, g, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("pipeline circuit must be SI: %v", res.Violations)
	}
}
