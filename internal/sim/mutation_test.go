package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
)

// mutant is a netlist with one gate's network changed.
type mutant struct {
	nl   *logic.Netlist
	gate int // index of the mutated gate
}

// polarityMutants flips the polarity of one random literal of golden per
// trial (40 trials, seed 7; trials that draw a gate or cube without
// literals are skipped).
func polarityMutants(golden *logic.Netlist) []mutant {
	rng := rand.New(rand.NewSource(7))
	var out []mutant
	for trial := 0; trial < 40; trial++ {
		nl := cloneForMutation(golden)
		gi := rng.Intn(len(nl.Gates))
		g := &nl.Gates[gi]
		if len(g.F.Cubes) == 0 {
			continue
		}
		ci := rng.Intn(len(g.F.Cubes))
		cube := g.F.Cubes[ci]
		lits := supportOf(cube)
		if len(lits) == 0 {
			continue
		}
		v := lits[rng.Intn(len(lits))]
		g.F.Cubes[ci] = boolmin.Cube{Val: cube.Val ^ (1 << uint(v)), Care: cube.Care}
		out = append(out, mutant{nl, gi})
	}
	return out
}

// droppedCubeMutants drops the first cube of every gate of nl with at least
// two (a stuck-at fault on part of the network).
func droppedCubeMutants(nl *logic.Netlist) []mutant {
	var out []mutant
	for gi := range nl.Gates {
		if len(nl.Gates[gi].F.Cubes) < 2 {
			continue
		}
		mut := cloneForMutation(nl)
		mut.Gates[gi].F.Cubes = mut.Gates[gi].F.Cubes[1:]
		out = append(out, mutant{mut, gi})
	}
	return out
}

// Mutation robustness: random single-literal mutations of a verified circuit
// must never crash the verifier, and flipping a literal's polarity must
// always be detected (the mutated function differs on some reachable code,
// so the circuit misbehaves).
func TestMutationPolarityAlwaysCaught(t *testing.T) {
	spec := timedSpec(t)
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	mutants := polarityMutants(golden)
	for i, mut := range mutants {
		res, err := sim.Verify(mut.nl, spec, sim.Options{MaxViolations: 3})
		if err != nil {
			// Structural rejection (e.g. no stable initial vector) is a
			// legitimate detection too.
			continue
		}
		if res.OK() {
			// A mutation can only go unnoticed if the mutated cover equals
			// the original on every reachable code — check that is the case.
			out := golden.Gates[mut.gate].Output
			for s := range sg.States {
				code := uint64(sg.States[s].Code)
				if mut.nl.Next(code, out) != golden.Next(code, out) {
					t.Fatalf("mutant %d: functional mutation escaped verification", i)
				}
			}
		}
	}
	if len(mutants) < 20 {
		t.Fatalf("only %d mutations exercised", len(mutants))
	}
}

func cloneForMutation(nl *logic.Netlist) *logic.Netlist {
	c := &logic.Netlist{Name: nl.Name}
	for i, s := range nl.Signals {
		c.AddSignal(s, nl.Kinds[i])
	}
	for _, g := range nl.Gates {
		c.Gates = append(c.Gates, logic.Gate{
			Kind: g.Kind, Output: g.Output,
			F: g.F.Clone(), Set: g.Set.Clone(), Reset: g.Reset.Clone(),
		})
	}
	return c
}

func supportOf(c boolmin.Cube) []int {
	var out []int
	for v := 0; v < 64; v++ {
		if c.Care&(1<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// Dropping a whole gate cube (stuck-at fault on part of the network) is
// caught as deadlock or conformance failure.
func TestMutationDroppedCube(t *testing.T) {
	spec := timedSpec(t)
	for _, mut := range droppedCubeMutants(timedNetlist(t, spec)) {
		res, err := sim.Verify(mut.nl, spec, sim.Options{MaxViolations: 3})
		if err != nil {
			continue // structural detection
		}
		if res.OK() {
			t.Fatalf("dropping a cube of %s escaped verification",
				mut.nl.Signals[mut.nl.Gates[mut.gate].Output])
		}
	}
}
