package sim_test

import (
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/faultinject"
	"repro/internal/reach"
	"repro/internal/sim"
)

// TestStateGraphBudget: StateGraph polls its budget at sim.explore, so a
// cancellation planned at the first check surfaces as budget.ErrCanceled,
// and its state cap trips with the typed state-limit error.
func TestStateGraphBudget(t *testing.T) {
	spec := timedSpec(t)
	nl := timedNetlist(t, spec)
	if _, err := sim.StateGraph(nl, spec, sim.Options{}); err != nil {
		t.Fatalf("the circuit's state graph must build: %v", err)
	}

	in, b := faultinject.New(faultinject.Plan{Mode: faultinject.Cancel, N: 1, Site: "sim.explore"})
	defer in.Release()
	sg, err := sim.StateGraph(nl, spec, sim.Options{Budget: b})
	if !in.Fired() || !errors.Is(err, budget.ErrCanceled) || sg != nil {
		t.Fatalf("cancel at sim.explore #1: fired %v, state graph %v, error %v", in.Fired(), sg, err)
	}

	specSG, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sg, err = sim.StateGraph(nl, spec, sim.Options{SG: specSG, Budget: &budget.Budget{MaxStates: 5}})
	var le budget.ErrLimit
	if !errors.Is(err, reach.ErrStateLimit) || !errors.As(err, &le) || le.Limit != 5 || le.Used != 5 || sg != nil {
		t.Fatalf("MaxStates 5: state graph %v, error %v", sg, err)
	}
}
