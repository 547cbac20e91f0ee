package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reach"
	"repro/internal/sim"
)

// TestMullerStateStoreAllocs pins the packed state store on muller-6
// (5,168 states): building the spec's state graph and verifying the flow's
// netlist each allocate fewer than 200 times, not once or more per state.
func TestMullerStateStoreAllocs(t *testing.T) {
	g := gen.MullerPipeline(6)
	rep, err := core.Synthesize(g, core.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SG.NumStates() != 5168 {
		t.Fatalf("muller-6 has %d states, want 5168", rep.SG.NumStates())
	}
	build := testing.AllocsPerRun(3, func() {
		if _, err := reach.BuildSG(g, reach.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	verify := testing.AllocsPerRun(3, func() {
		res, err := sim.Verify(rep.Netlist, rep.Spec, sim.Options{SG: rep.SG})
		if err != nil || !res.OK() {
			t.Fatalf("verify: %v %v", err, res)
		}
	})
	if build >= 200 || verify >= 200 {
		t.Fatalf("BuildSG allocates %.0f times, Verify %.0f; want fewer than 200 each", build, verify)
	}
	t.Logf("BuildSG %.0f allocs, Verify %.0f allocs", build, verify)
}
