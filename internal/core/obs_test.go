package core_test

import (
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vme"
)

// TestFlowMetricsSnapshot runs the full flow with observability enabled and
// checks that the report carries a snapshot with the counters of every phase
// engine and a valid flow → phase → engine span hierarchy.
func TestFlowMetricsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	if err := rep.Metrics.ValidateHierarchy(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"reach.states", "reach.arcs",
		"encoding.candidates",
		"logic.signals", "logic.cover_literals",
	} {
		if rep.Metrics.Counters[name] == 0 {
			t.Fatalf("counter %s is zero; counters: %v", name, rep.Metrics.Counters)
		}
	}
	for _, name := range []string{"flow:synthesize", "phase:sg", "phase:encoding", "phase:logic", "phase:verify"} {
		if !hasSpan(rep.Metrics, name) {
			t.Fatalf("span %s missing; spans: %+v", name, rep.Metrics.Spans)
		}
	}
	h, ok := rep.Metrics.Histograms["logic.cover_size"]
	if !ok || h.Count == 0 {
		t.Fatalf("logic.cover_size histogram missing or empty: %+v", h)
	}
}

// TestCSCSpecSkipsEncoding runs a spec that already has CSC with
// observability on: the flow builds its state graph once and runs no
// encoding search (no encoding span, no encoding.* counter), and the
// netlist it derives on that graph verifies.
func TestCSCSpecSkipsEncoding(t *testing.T) {
	rep, err := core.Synthesize(gen.MullerPipeline(4), core.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CSC != "" || !rep.Properties.CSC {
		t.Fatalf("CSC = %q, properties %s: want no encoding on a CSC-holding spec", rep.CSC, rep.Properties)
	}
	if rep.Verification == nil || !rep.Verification.OK() {
		t.Fatalf("netlist does not verify: %+v", rep.Verification)
	}
	for _, name := range []string{"phase:encoding", "engine:encoding"} {
		if hasSpan(rep.Metrics, name) {
			t.Fatalf("span %s opened on a CSC-holding spec", name)
		}
	}
	for name, v := range rep.Metrics.Counters {
		if strings.HasPrefix(name, "encoding.") {
			t.Fatalf("counter %s = %d on a CSC-holding spec", name, v)
		}
	}
	if got, want := rep.Metrics.Counters["reach.states"], int64(rep.SG.NumStates()); got != want {
		t.Fatalf("reach.states = %d, want one build of %d states", got, want)
	}
}

// TestFlowFallbackMetrics trips the state budget with the fallback ladder on
// and checks the degradation is visible in the snapshot: a phase:fallback
// span, the transition counter, and the engines tried on the way down.
func TestFlowFallbackMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{
		Obs: reg, Fallback: true, Budget: &budget.Budget{MaxStates: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("degraded report carries no metrics snapshot")
	}
	if err := rep.Metrics.ValidateHierarchy(); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["core.fallback_transitions"] == 0 {
		t.Fatalf("core.fallback_transitions is zero; counters: %v", rep.Metrics.Counters)
	}
	if !hasSpan(rep.Metrics, "phase:fallback") {
		t.Fatalf("no phase:fallback span; spans: %+v", rep.Metrics.Spans)
	}
	if !hasSpan(rep.Metrics, "engine:symbolic") {
		t.Fatalf("no engine:symbolic span under the ladder; spans: %+v", rep.Metrics.Spans)
	}
}

// TestFlowNilRegistryNoSnapshot keeps the disabled path disabled: without a
// registry the report must not grow a snapshot.
func TestFlowNilRegistryNoSnapshot(t *testing.T) {
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Fatal("nil registry must not produce a snapshot")
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

// TestReduceInFlow runs concurrency reduction inside the flow: on the VME
// read cycle it delays DTACK- until LDTACK- and the netlist verifies. The
// search opens engine:encoding under phase:encoding, and its counters
// account for every one of the 54 orderings: 23 deadlock, 28 make no
// progress, 1 is unsafe and 2 solve CSC and are costed. The equations are
// the same at one and two workers.
func TestReduceInFlow(t *testing.T) {
	var eqns []string
	for _, workers := range []int{1, 2} {
		rep, err := core.Synthesize(vme.ReadSTG(), core.Options{Reduce: true, Workers: workers, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CSC != "delay DTACK- until LDTACK-" {
			t.Fatalf("CSC = %q, want delay DTACK- until LDTACK-", rep.CSC)
		}
		if rep.Verification == nil || !rep.Verification.OK() {
			t.Fatalf("netlist does not verify: %+v", rep.Verification)
		}
		eqns = append(eqns, rep.Equations())
		ids := map[string]int{}
		for _, sp := range rep.Metrics.Spans {
			ids[sp.Name] = sp.ID
		}
		under := false
		for _, sp := range rep.Metrics.Spans {
			if sp.Name == "engine:encoding" {
				under = sp.Parent == ids["phase:encoding"]
			}
		}
		if !under {
			t.Fatalf("no engine:encoding span under phase:encoding: %+v", rep.Metrics.Spans)
		}
		c := rep.Metrics.Counters
		for name, want := range map[string]int64{
			"encoding.candidates": 54, "encoding.rebuilt": 54, "encoding.costed": 2,
			"encoding.rejected_deadlock": 23, "encoding.rejected_no_progress": 28,
			"encoding.rejected_unsafe": 1,
		} {
			if c[name] != want {
				t.Fatalf("w%d: %s = %d, want %d", workers, name, c[name], want)
			}
		}
	}
	if eqns[0] != eqns[1] {
		t.Fatalf("equations differ across workers:\n%s\nvs\n%s", eqns[0], eqns[1])
	}
}
