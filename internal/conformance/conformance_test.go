package conformance

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
)

// model is one corpus entry. STG-backed models additionally get the CSC
// verdict cross-check.
type model struct {
	name   string
	net    *petri.Net
	g      *stg.STG // nil for plain Petri net families
	unsafe bool     // net is not 1-safe: symbolic (1-safe semantics) is skipped
}

// corpus loads every .g specification from testdata plus capped instances
// of the generated families of internal/gen.
func corpus(t *testing.T) []model {
	t.Helper()
	var models []model
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no testdata specifications found")
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		models = append(models, model{name: name, net: g.Net, g: g})
	}
	// Generated families, capped so the suite stays fast under -race.
	models = append(models,
		model{name: "gen/toggles-6", net: gen.IndependentToggles(6)},
		model{name: "gen/muller-4", net: gen.MullerPipeline(4).Net, g: gen.MullerPipeline(4)},
		model{name: "gen/ring-8-1", net: gen.MarkedGraphRing(8, 1)},
		// Tokens can bunch in one place, so this ring is not 1-safe and the
		// symbolic engine (1-safe no-contact semantics) is skipped for it.
		model{name: "gen/ring-8-4", net: gen.MarkedGraphRing(8, 4), unsafe: true},
		model{name: "gen/phil-4", net: gen.Philosophers(4)},
	)
	return models
}

// deadlockKeys canonicalizes a deadlock marking set for comparison.
func deadlockKeys(markings []petri.Marking) []string {
	keys := make([]string, len(markings))
	for i, m := range markings {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConformanceEngines runs every engine on every corpus model and
// asserts pairwise agreement on state counts and deadlock sets.
func TestConformanceEngines(t *testing.T) {
	for _, mdl := range corpus(t) {
		mdl := mdl
		t.Run(mdl.name, func(t *testing.T) {
			t.Parallel()
			// Reference: explicit enumeration.
			ref, err := reach.Explore(mdl.net, reach.Options{})
			if err != nil {
				t.Fatalf("explicit: %v", err)
			}
			refDead := make([]petri.Marking, 0, 4)
			for _, s := range ref.Deadlocks() {
				refDead = append(refDead, ref.Markings[s])
			}
			refKeys := deadlockKeys(refDead)

			// Symbolic traversal, plain and with a deliberately tiny GC
			// threshold plus sifting, so collection and reordering run on
			// real workloads inside the differential check.
			symVariants := []struct {
				tag  string
				opts symbolic.Options
			}{
				{"plain", symbolic.Options{}},
				{"gc+sift", symbolic.Options{GCThreshold: 256, Sift: true}},
				// Parallel image computation: canonicity makes the fixpoint
				// bit-identical to the sequential kernel's at any worker
				// count, so the same exact counts must come back.
				{"par-2", symbolic.Options{Workers: 2}},
				{"par-4", symbolic.Options{Workers: 4}},
				{"par-4+gc", symbolic.Options{Workers: 4, GCThreshold: 256}},
			}
			if mdl.unsafe {
				symVariants = nil
			}
			for _, sym := range symVariants {
				res, err := symbolic.ReachOpts(mdl.net, sym.opts)
				if err != nil {
					t.Fatalf("symbolic/%s: %v", sym.tag, err)
				}
				want := big.NewInt(int64(ref.NumStates()))
				if res.CountExact.Cmp(want) != 0 {
					t.Fatalf("symbolic/%s: %s states, explicit found %s",
						sym.tag, res.CountExact, want)
				}
				deadRef, _ := symbolic.DeadStates(mdl.net, res)
				deadCount := res.M.SatCountBig(deadRef)
				if deadCount.Cmp(big.NewInt(int64(len(refKeys)))) != 0 {
					t.Fatalf("symbolic/%s: %s deadlocks, explicit found %d",
						sym.tag, deadCount, len(refKeys))
				}
			}

			// Stubborn-set reduction preserves the exact deadlock marking
			// set while visiting at most as many states.
			red, err := stubborn.Explore(mdl.net, stubborn.Options{})
			if err != nil {
				t.Fatalf("stubborn: %v", err)
			}
			if !stringsEqual(deadlockKeys(red.Deadlocks), refKeys) {
				t.Fatalf("stubborn: deadlock set %v, explicit %v",
					deadlockKeys(red.Deadlocks), refKeys)
			}
			if red.States > ref.NumStates() {
				t.Fatalf("stubborn explored %d states, full space has %d",
					red.States, ref.NumStates())
			}
		})
	}
}

// TestConformanceCSC checks the Complete State Coding verdict of every
// STG-backed model agrees between the state graph's pairwise code analysis
// and the logic deriver's per-code scan: logic reports a CSC witness
// exactly when the state graph lists CSC conflicts, and the witness is one
// of the listed pairs.
func TestConformanceCSC(t *testing.T) {
	for _, mdl := range corpus(t) {
		if mdl.g == nil {
			continue
		}
		mdl := mdl
		t.Run(mdl.name, func(t *testing.T) {
			t.Parallel()
			ref, err := reach.BuildSG(mdl.g, reach.Options{})
			if err != nil {
				t.Fatalf("BuildSG: %v", err)
			}
			conflicts := ref.CSCConflicts()
			_, err = logic.DeriveAllOpts(ref, logic.Options{})
			var ce *logic.CSCError
			witnessed := errors.As(err, &ce)
			if err != nil && !witnessed {
				t.Fatalf("DeriveAllOpts: %v", err)
			}
			if witnessed != (len(conflicts) > 0) {
				t.Fatalf("logic witness %v, state graph lists %d CSC conflicts", err, len(conflicts))
			}
			if !witnessed {
				return
			}
			for _, c := range conflicts {
				if c.A == ce.A && c.B == ce.B || c.A == ce.B && c.B == ce.A {
					return
				}
			}
			t.Fatalf("logic witness states %d/%d are not a listed CSC conflict", ce.A, ce.B)
		})
	}
}

// TestConformanceCorpusSize pins the acceptance floor: at least 4 engines
// on at least 6 models.
func TestConformanceCorpusSize(t *testing.T) {
	models := corpus(t)
	if len(models) < 6 {
		t.Fatalf("conformance corpus has %d models, want >= 6", len(models))
	}
	// Engines exercised above: explicit, symbolic (plain, gc+sift and
	// parallel-image kernels), stubborn.
	fmt.Fprintf(os.Stderr, "conformance: %d models x {explicit, symbolic(plain, gc+sift, par-2/4), stubborn}\n",
		len(models))
}
