package sim_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/logic"
	"repro/internal/sim"
)

// TestExcitedAfterMatchesExcitedMask checks the verifier's fan rule against
// a full re-evaluation on every reference-case netlist: for every signal j
// and vector v, the rule applied to ExcitedMask(v) and v^(1<<j) must give
// ExcitedMask(v^(1<<j)). A netlist of n <= 12 signals is checked at all 2^n
// vectors. A larger one is checked at 4,096 seeded random vectors per
// signal, drawn as subcubes: its signals are cut into groups of at most
// six, and each group is varied over all its values at 4096/2^size random
// settings of the other signals, so that every flip of a group's signal
// stays inside a subcube evaluated once. Every gate kind must occur among
// the netlists.
func TestExcitedAfterMatchesExcitedMask(t *testing.T) {
	seen := map[*logic.Netlist]bool{}
	kinds := map[logic.GateKind]int{}
	rng := rand.New(rand.NewPCG(28, 1))
	var netlists, checks int
	for _, c := range referenceCases(t) {
		nl := c.nl
		if seen[nl] {
			continue
		}
		seen[nl] = true
		netlists++
		for _, g := range nl.Gates {
			kinds[g.Kind]++
		}
		rule := sim.ExcitedAfter(nl)
		var vecs, table []uint64
		// cube checks every flip of a group signal at the vectors that
		// agree with base outside the group: vecs[x] sets the group's i-th
		// signal to bit i of x, and table[x] is its ExcitedMask.
		cube := func(base uint64, group []int) {
			vecs, table = vecs[:0], table[:0]
			for x := range 1 << len(group) {
				v := base
				for i, j := range group {
					v = v&^(1<<uint(j)) | uint64(x>>i&1)<<uint(j)
				}
				vecs = append(vecs, v)
				table = append(table, nl.ExcitedMask(v))
			}
			for x, exc := range table {
				for i, j := range group {
					nx := x ^ 1<<i
					if got := rule(exc, j, vecs[nx]); got != table[nx] {
						t.Fatalf("%s: flipping %s at %b gives excited %b, ExcitedMask %b",
							c.name, nl.Signals[j], vecs[x], got, table[nx])
					}
					checks++
				}
			}
		}
		n := len(nl.Signals)
		if n <= 12 {
			all := make([]int, n)
			for j := range all {
				all[j] = j
			}
			cube(0, all)
			continue
		}
		mask := uint64(1)<<uint(n) - 1
		for lo := 0; lo < n; lo += 6 {
			group := make([]int, 0, 6)
			for j := lo; j < min(lo+6, n); j++ {
				group = append(group, j)
			}
			for range 4096 >> len(group) {
				cube(rng.Uint64()&mask, group)
			}
		}
	}
	for _, k := range []logic.GateKind{logic.Comb, logic.CElem, logic.RSLatch, logic.MutexHalf} {
		if kinds[k] == 0 {
			t.Fatalf("no %v gate among the %d netlists", k, netlists)
		}
	}
	t.Logf("%d netlists, %d flips checked, gates by kind %v", netlists, checks, kinds)
}
