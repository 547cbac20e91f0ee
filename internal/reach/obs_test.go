package reach

import (
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TestObsCountersSequential checks that an enabled registry sees the explicit
// engine's counters and an engine span after an exploration.
func TestObsCountersSequential(t *testing.T) {
	reg := obs.NewRegistry()
	root := reg.Root("flow:test")
	g, err := Explore(gen.IndependentToggles(6), Options{Obs: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := reg.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["reach.states"]; got != int64(g.NumStates()) {
		t.Fatalf("reach.states = %d, want %d", got, g.NumStates())
	}
	if got := snap.Counters["reach.arcs"]; got != int64(g.NumArcs()) {
		t.Fatalf("reach.arcs = %d, want %d", got, g.NumArcs())
	}
	if snap.Counters["reach.budget_checks"] == 0 {
		t.Fatal("reach.budget_checks must be non-zero")
	}
	if !hasSpan(snap, "engine:explicit") {
		t.Fatalf("no engine:explicit span in %+v", snap.Spans)
	}
}

// TestObsBuildSGStateLimit checks that a BuildSG cut by its state cap
// still reports the states and arcs it explored, as Explore does.
func TestObsBuildSGStateLimit(t *testing.T) {
	g := gen.MullerPipeline(3)
	partial, err := Explore(g.Net, Options{Budget: &budget.Budget{MaxStates: 17}})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("Explore: want ErrStateLimit, got %v", err)
	}
	reg := obs.NewRegistry()
	root := reg.Root("flow:test")
	if _, err := BuildSG(g, Options{Budget: &budget.Budget{MaxStates: 17}, Obs: root}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("BuildSG: want ErrStateLimit, got %v", err)
	}
	root.End()
	snap := reg.Snapshot()
	if got := snap.Counters["reach.states"]; got != 17 {
		t.Fatalf("reach.states = %d, want 17", got)
	}
	if got := snap.Counters["reach.arcs"]; got != int64(partial.NumArcs()) {
		t.Fatalf("reach.arcs = %d, want %d", got, partial.NumArcs())
	}
}

// TestObsNilIsInert makes sure exploration with no span behaves identically.
func TestObsNilIsInert(t *testing.T) {
	net := gen.IndependentToggles(5)
	plain, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	root := reg.Root("flow:test")
	observed, err := Explore(net, Options{Obs: root})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumStates() != observed.NumStates() || plain.NumArcs() != observed.NumArcs() {
		t.Fatalf("observation changed the result: %d/%d vs %d/%d",
			plain.NumStates(), plain.NumArcs(), observed.NumStates(), observed.NumArcs())
	}
}

func hasSpan(snap *obs.Snapshot, name string) bool {
	for _, sp := range snap.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}
