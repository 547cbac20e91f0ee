package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/reach"
	"repro/internal/sim"
)

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMullerStateStoreAllocs pins the packed state store on muller-6
// (5,168 states): building the spec's state graph and verifying the flow's
// netlist each allocate fewer than 80 times, not once or more per state.
// It also bounds their bytes: BuildSG's step array and index slab double
// rather than grow by append's 1.25× (at most 2.6 MB), and Verify handed
// the flow's state graph sizes its store from it and never grows it (at
// most 0.40 MB); the byte bounds do not apply under the race detector.
func TestMullerStateStoreAllocs(t *testing.T) {
	g := gen.MullerPipeline(6)
	rep, err := core.Synthesize(g, core.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SG.NumStates() != 5168 {
		t.Fatalf("muller-6 has %d states, want 5168", rep.SG.NumStates())
	}
	build := func() {
		if _, err := reach.BuildSG(g, reach.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	verify := func() {
		res, err := sim.Verify(rep.Netlist, rep.Spec, sim.Options{SG: rep.SG})
		if err != nil || !res.OK() {
			t.Fatalf("verify: %v %v", err, res)
		}
	}
	buildAllocs, verifyAllocs := testing.AllocsPerRun(3, build), testing.AllocsPerRun(3, verify)
	if buildAllocs >= 80 || verifyAllocs >= 80 {
		t.Fatalf("BuildSG allocates %.0f times, Verify %.0f; want fewer than 80 each", buildAllocs, verifyAllocs)
	}
	buildBytes, verifyBytes := bytesPerRun(3, build), bytesPerRun(3, verify)
	if !raceEnabled && (buildBytes > 2_600_000 || verifyBytes > 400_000) {
		t.Fatalf("BuildSG allocates %d bytes, Verify %d; want at most 2.6 MB and 0.40 MB", buildBytes, verifyBytes)
	}
	t.Logf("BuildSG %.0f allocs, %d bytes; Verify %.0f allocs, %d bytes", buildAllocs, buildBytes, verifyAllocs, verifyBytes)
}
