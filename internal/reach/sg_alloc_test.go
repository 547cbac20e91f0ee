package reach

import (
	"testing"

	"repro/internal/stg"
)

// toggleRingSpec builds a single-signal STG whose n toggle transitions form
// a ring: the (marking, code) exploration walks a cycle of n or 2n states.
func toggleRingSpec(n int) *stg.STG {
	g := stg.New("togring")
	g.AddSignal("x", stg.Output)
	tr := make([]int, n)
	for i := range tr {
		tr[i] = g.AddTransition(0, stg.Toggle)
	}
	for i := 0; i < n-1; i++ {
		g.Net.Implicit(tr[i], tr[i+1], 0)
	}
	g.Net.Implicit(tr[n-1], tr[0], 1)
	return g
}

// TestBuildSGToggleAllocs pins the toggle path's storage: the (marking,
// code) keys live in the index's slab and the SG slices one key string, so
// a 128-state toggle ring allocates a bounded number of times, not a key
// per state or per arc.
func TestBuildSGToggleAllocs(t *testing.T) {
	g := toggleRingSpec(64)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildSG(g, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("BuildSG(toggleRingSpec(64)) allocates %.0f times, want ≤ 60", allocs)
	}
	t.Logf("%.0f allocs", allocs)
}

func BenchmarkBuildSGToggle(b *testing.B) {
	g := toggleRingSpec(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSG(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
