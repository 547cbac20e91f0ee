package sim_test

import (
	"strings"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
)

// arbiterSpec is the Section 1.5 situation: two clients compete for one
// resource; the grants g1/g2 are outputs in direct conflict, which cannot be
// implemented without a mutual exclusion element.
func arbiterSpec(t testing.TB) *stg.STG {
	t.Helper()
	g := stg.New("arbiter")
	g.AddSignal("r1", stg.Input)
	g.AddSignal("r2", stg.Input)
	g.AddSignal("g1", stg.Output)
	g.AddSignal("g2", stg.Output)
	n := g.Net
	res := n.AddPlace("res", 1)
	for _, client := range []string{"1", "2"} {
		rp := g.Rise("r" + client)
		gp := g.Rise("g" + client)
		rm := g.Fall("r" + client)
		gm := g.Fall("g" + client)
		n.Chain(rp, gp, rm, gm)
		n.Implicit(gm, rp, 1)
		n.ArcPT(res, gp)
		n.ArcTP(gm, res)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// arbiterNetlist builds the mutex implementation: g1 = MUTEX(r1·g2'),
// g2 = MUTEX(r2·g1'). With kind Comb instead the same functions are a
// hazardous plain cross-coupled circuit.
func arbiterNetlist(t testing.TB, kind logic.GateKind) *logic.Netlist {
	t.Helper()
	nl := &logic.Netlist{Name: "mutex-arbiter"}
	r1 := nl.AddSignal("r1", stg.Input)
	r2 := nl.AddSignal("r2", stg.Input)
	g1 := nl.AddSignal("g1", stg.Output)
	g2 := nl.AddSignal("g2", stg.Output)
	cube := func(lits map[int]bool) boolmin.Cover {
		c := boolmin.FullCube()
		for v, pos := range lits {
			c = c.WithLiteral(v, pos)
		}
		return boolmin.Cover{N: 4, Cubes: []boolmin.Cube{c}}
	}
	nl.Gates = []logic.Gate{
		{Kind: kind, Output: g1, F: cube(map[int]bool{r1: true, g2: false})},
		{Kind: kind, Output: g2, F: cube(map[int]bool{r2: true, g1: false})},
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestArbiterSpecNeedsMutex: the specification itself violates persistency
// (output/output conflict), which is why plain logic synthesis must refuse
// it.
func TestArbiterSpecNeedsMutex(t *testing.T) {
	spec := arbiterSpec(t)
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.IsPersistent() {
		t.Fatal("arbiter spec must violate persistency")
	}
	viol := sg.PersistencyViolations()
	found := false
	for _, v := range viol {
		if strings.HasPrefix(v.Disabled.Name, "g") && strings.HasPrefix(v.Disabler.Name, "g") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected grant/grant conflict, got %v", viol)
	}
}

// TestMutexImplementationVerifies: with mutex-half gates the implementation
// is accepted — losing the race is not a hazard.
func TestMutexImplementationVerifies(t *testing.T) {
	spec := arbiterSpec(t)
	nl := arbiterNetlist(t, logic.MutexHalf)
	res, err := sim.Verify(nl, spec, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("mutex arbiter must verify: %v", res.Violations)
	}
	if !strings.Contains(nl.Equations(), "MUTEX(") {
		t.Fatalf("equation rendering: %s", nl.Equations())
	}
}

// TestPlainGatesAreHazardous: the identical functions as plain combinational
// gates glitch when both requests race.
func TestPlainGatesAreHazardous(t *testing.T) {
	spec := arbiterSpec(t)
	nl := arbiterNetlist(t, logic.Comb)
	res, err := sim.Verify(nl, spec, sim.Options{MaxViolations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("cross-coupled gates without a mutex must be hazardous")
	}
	hazardOnGrant := false
	for _, v := range res.Violations {
		if v.Kind == sim.Hazard && strings.HasPrefix(v.Signal, "g") {
			hazardOnGrant = true
		}
	}
	if !hazardOnGrant {
		t.Fatalf("expected grant hazard, got %v", res.Violations)
	}
}

// The mutex guarantees mutual exclusion in every reachable composed state.
func TestMutexExclusionInvariant(t *testing.T) {
	spec := arbiterSpec(t)
	nl := arbiterNetlist(t, logic.MutexHalf)
	sg, err := sim.StateGraph(nl, spec, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g1 := sg.SignalIndex("g1")
	g2 := sg.SignalIndex("g2")
	for _, s := range sg.States {
		if s.Code.Bit(g1) && s.Code.Bit(g2) {
			t.Fatal("both grants high: mutual exclusion violated")
		}
	}
}
