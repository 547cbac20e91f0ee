package encoding

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestTwinSurvivorsContinueAlike checks the premise of firstRound's skip:
// two first-round survivors share a canonical signature exactly when their
// pairs share a class, and two such twins rank their next round alike —
// the same (description, key) list — and their greedy continuations end
// alike: the same exhaustion, or the same literal cost and the same
// insertions after the first. It covers every pair of survivors among the
// first rankedFirstRound of every golden model.
func TestTwinSurvivorsContinueAlike(t *testing.T) {
	twins := make(map[string]int)
	for _, m := range rankedModels(t, 2, 3, 4) {
		ctx := newEvalCtx(Options{Workers: 2})
		ranked, err := rankedInsertions(explored(t, m.g), "csc0", rankedFirstRound, ctx)
		if err != nil {
			continue
		}
		sigs := make([]string, len(ranked))
		for i, s := range ranked {
			sigs[i] = canonicalSignature(s.sol.STG)
		}
		for i := range ranked {
			for j := i + 1; j < len(ranked); j++ {
				a, b := ranked[i].sol, ranked[j].sol
				sameClass := ranked[i].pair.rep == ranked[j].pair.rep
				if sameSig := sigs[i] == sigs[j]; sameSig != sameClass {
					t.Errorf("%s: survivors %q and %q share a class: %v, a signature: %v",
						m.name, a.Description, b.Description, sameClass, sameSig)
				}
				if !sameClass {
					continue
				}
				twins[m.name]++
				if ra, rb := nextRound(a, ctx), nextRound(b, ctx); !slices.Equal(ra, rb) {
					t.Errorf("%s: twins %q and %q rank their next round differently:\n%v\n%v",
						m.name, a.Description, b.Description, ra, rb)
				}
				if ca, cb := continuation(a, ctx), continuation(b, ctx); ca != cb {
					t.Errorf("%s: twins %q and %q continue differently: %s, %s",
						m.name, a.Description, b.Description, ca, cb)
				}
			}
		}
	}
	// On cscring-4 the ten survivors form five classes of two, e.g.
	// "+ after a0+, - after a0+/1" and "+ after a0+, - before a0-/1".
	if twins["gen/cscring-4"] != 5 {
		t.Errorf("cscring-4 has %d twin pairs among its first survivors, want 5 (all: %v)",
			twins["gen/cscring-4"], twins)
	}
	t.Logf("twin pairs per model: %v", twins)
}

// nextRound renders survivor s's csc1 round: every candidate's description
// and key in rank order, or the round's error.
func nextRound(s *Solution, ctx *evalCtx) []string {
	all, err := scoreInsertions(s, "csc1", 0, ctx)
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = fmt.Sprintf("%s | %v", describeInsertion(s.STG, "csc1", c.pair.r, c.pair.f), c.key)
	}
	return out
}

// continuation renders how firstRound's greedy continuation from s ends:
// its exhaustion, or its literal cost and the insertions after s's own.
func continuation(s *Solution, ctx *evalCtx) string {
	sol, err := continueGreedy(s, 2, ctx)
	switch {
	case errors.Is(err, errNoInsertion), errors.Is(err, errUnsolved):
		return "exhausted: " + err.Error()
	case err != nil:
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d literals, %q", sol.Literals, strings.TrimPrefix(sol.Description, s.Description))
}

// TestTwinSkipCounters pins the search's account on cscring-4 with the
// flow's settings (three signals, five solutions): five of its ten
// first-round survivors are skipped as twins of exhausted ones
// (encoding.twin_skips), so it judges 30,916 insertion pairs (59,576
// without the skip), explores 8,736 of them on the product, one per class
// of isomorphic pairs, and rebuilds 20 survivors (30). A skip keyed on
// anything coarser than the pair class changes these counts.
func TestTwinSkipCounters(t *testing.T) {
	for _, w := range []int{1, 2} {
		reg := obs.NewRegistry()
		root := reg.Root("flow:test")
		_, err := SolutionsOpts(gen.CSCRing(4), 3, 5, Options{Workers: w, Obs: root})
		root.End()
		if want := "encoding: CSC not solved within 3 signal insertions"; err == nil || err.Error() != want {
			t.Fatalf("w=%d: got error %v, want %q", w, err, want)
		}
		c := reg.Snapshot().Counters
		if c["encoding.candidates"] != 30916 || c["encoding.explored"] != 8736 ||
			c["encoding.rebuilt"] != 20 || c["encoding.twin_skips"] != 5 {
			t.Fatalf("w=%d: encoding.candidates = %d, explored = %d, rebuilt = %d, twin_skips = %d; want 30916, 8736, 20 and 5",
				w, c["encoding.candidates"], c["encoding.explored"], c["encoding.rebuilt"], c["encoding.twin_skips"])
		}
	}
}
