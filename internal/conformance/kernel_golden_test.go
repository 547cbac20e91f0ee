package conformance

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/symbolic"
)

const kernelGolden = "testdata/kernel.golden"

// renderKernel renders one symbolic traversal of net: the exact reachable
// and deadlocked state counts, the fixpoint depth, and the BDD kernel's
// deterministic counters (peak nodes, unique-table and op-cache traffic,
// collections, reorders). The counters are a function of the kernel's code
// path alone, so any change to node creation, caching, GC or sifting shows
// up here even when the state counts stay right.
func renderKernel(b *strings.Builder, mdl model, tag string, opts symbolic.Options) {
	res, err := symbolic.ReachOpts(mdl.net, opts)
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", tag, err)
		return
	}
	dead, _ := symbolic.DeadStates(mdl.net, res)
	st := res.Stats
	fmt.Fprintf(b, "%s: states=%s dead=%s iterations=%d peak=%d unique=%d/%d cache=%d/%d gc=%d/%d reorders=%d swaps=%d\n",
		tag, res.CountExact, res.M.SatCountBig(dead), res.Iterations, res.PeakNodes,
		st.UniqueHits, st.UniqueLookups, st.CacheHits, st.CacheLookups,
		st.GCRuns, st.GCFreed, st.Reorders, st.Swaps)
}

// TestKernelGolden pins the symbolic engine's BDD kernel over the
// conformance corpus (the models the 1-safe symbolic semantics applies
// to): plain, with a tiny GC threshold plus sifting, and with sifting
// alone, which lets the larger models grow past the reorder trigger. Run
// with -update to rewrite the golden after an intended kernel change.
func TestKernelGolden(t *testing.T) {
	var b strings.Builder
	for _, mdl := range corpus(t) {
		if mdl.unsafe {
			continue
		}
		fmt.Fprintf(&b, "== %s\n", mdl.name)
		renderKernel(&b, mdl, "plain", symbolic.Options{})
		renderKernel(&b, mdl, "gc+sift", symbolic.Options{GCThreshold: 256, Sift: true})
		renderKernel(&b, mdl, "sift", symbolic.Options{Sift: true})
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(kernelGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kernelGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", kernelGolden, got, want)
	}
}
