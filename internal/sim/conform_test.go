package sim_test

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/vme"
)

// An STG trivially conforms to itself.
func TestConformsReflexive(t *testing.T) {
	g := vme.ReadSTG()
	viol, err := sim.ConformsSTG(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 0 {
		t.Fatalf("self-conformance: %v", viol)
	}
}

// The csc0-inserted STG conforms to the original: csc0 is internal/hidden.
func TestConformsWithInternalSignal(t *testing.T) {
	g := vme.ReadSTG()
	impl, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		t.Fatal(err)
	}
	viol, err := sim.ConformsSTG(impl, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 0 {
		t.Fatalf("csc0 insertion must conform: %v", viol)
	}
}

// The back-annotated STG of the implementation conforms to the paper spec —
// the Figure 10 loop closes formally.
func TestBackAnnotationConforms(t *testing.T) {
	g := vme.ReadSTG()
	spec, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	implSG, err := sim.StateGraph(nl, spec, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := regions.Synthesize(implSG)
	if err != nil {
		t.Fatal(err)
	}
	viol, err := sim.ConformsSTG(back, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 0 {
		t.Fatalf("back-annotated STG must conform to the original interface: %v", viol)
	}
}

// Early enabling without its timing assumption breaks safety: LDS- may fire
// before D-, which the original spec forbids.
func TestRetriggerDoesNotConform(t *testing.T) {
	g := vme.ReadSTG()
	early, _, err := timing.Retrigger(g, "LDS-", "D-", "DSr-")
	if err != nil {
		t.Fatal(err)
	}
	viol, err := sim.ConformsSTG(early, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) == 0 {
		t.Fatal("retriggered spec must violate safety against the original")
	}
	if viol[0].Kind != "safety" || viol[0].String() == "" {
		t.Fatalf("expected safety violation, got %v", viol)
	}
}

// Concurrency reduction conforms (it only removes behaviour the environment
// never relied on) — receptiveness still holds because inputs are untouched.
func TestReductionConforms(t *testing.T) {
	g := vme.ReadSTG()
	reduced, err := encoding.DelayTransition(g,
		g.Net.TransitionIndex("DTACK-"), g.Net.TransitionIndex("LDS-"))
	if err != nil {
		t.Fatal(err)
	}
	viol, err := sim.ConformsSTG(reduced, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 0 {
		t.Fatalf("concurrency reduction must conform: %v", viol)
	}
}

// Dropping an input transition breaks receptiveness.
func TestReceptivenessViolation(t *testing.T) {
	g := vme.ReadSTG()
	impl := g.Clone()
	// Starve DSr+: require an extra never-marked place.
	blocked := impl.Net.AddPlace("never", 0)
	impl.Net.ArcPT(blocked, impl.Net.TransitionIndex("DSr+"))
	viol, err := sim.ConformsSTG(impl, g)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range viol {
		if v.Kind == "receptiveness" && v.Event == "DSr+" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected DSr+ receptiveness violation, got %v", viol)
	}
}

func TestConformsErrors(t *testing.T) {
	g := vme.ReadSTG()
	rw := vme.ReadWriteSTG()
	if _, err := sim.ConformsSTG(g, rw); err == nil {
		t.Fatal("missing DSw in impl must error")
	}
}
