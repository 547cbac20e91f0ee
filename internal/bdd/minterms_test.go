package bdd

import (
	"math/rand"
	"testing"
)

// fromMintermsOR is the construction FromMinterms replaced: one
// NumVars-literal cube per minterm, ORed in through ITE. It stays as the
// reference the level-by-level split must reproduce Ref for Ref.
func fromMintermsOR(m *Manager, ms []uint64) Ref {
	r := False
	for _, mt := range ms {
		cube := True
		for v := 0; v < m.numVars; v++ {
			if mt&(1<<uint(v)) != 0 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		r = m.Or(r, cube)
	}
	return r
}

// TestFromMintermsMatchesOrOfCubes compares the level-by-level split with
// the OR-of-cubes reference at 16 to 24 variables, in the identity order and
// in a sifted one: canonicity makes equal functions equal Refs, so the two
// must agree exactly.
func TestFromMintermsMatchesOrOfCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{16, 20, 24} {
		low := uint64(1)<<uint(n) - 1
		random := make([]uint64, 3000)
		for i := range random {
			random[i] = rng.Uint64() & low
		}
		// garbage keeps random's minterms but sets bits above n on each, and
		// repeats every tenth.
		var garbage []uint64
		for i, mt := range random {
			garbage = append(garbage, mt|rng.Uint64()&^low)
			if i%10 == 0 {
				garbage = append(garbage, mt|1<<63)
			}
		}
		// cluster is every code of the low 12 variables under two fixed
		// high parts: dense subtrees that share structure.
		var cluster []uint64
		for _, high := range []uint64{0, low &^ 0xfff} {
			for c := uint64(0); c < 1<<12; c++ {
				cluster = append(cluster, high|c)
			}
		}
		cases := []struct {
			name string
			ms   []uint64
		}{
			{"empty", nil},
			{"random", random},
			{"garbage", garbage},
			{"cluster", cluster},
		}
		if n == 16 {
			full := make([]uint64, 1<<16)
			for i := range full {
				full[i] = uint64(i)
			}
			rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
			cases = append(cases, struct {
				name string
				ms   []uint64
			}{"full", full})
		}

		m := New(n)
		held := make([]Ref, len(cases))
		for i, c := range cases {
			got, want := m.FromMinterms(c.ms), fromMintermsOR(m, c.ms)
			if got != want {
				t.Fatalf("n=%d %s: FromMinterms = %d, OR of cubes = %d", n, c.name, got, want)
			}
			held[i] = m.IncRef(got)
		}
		if got := m.FromMinterms(garbage); got != held[1] {
			t.Fatalf("n=%d: bits above the variables changed the function", n)
		}
		if n == 16 && held[len(held)-1] != True {
			t.Fatalf("n=16: the full minterm set is not True")
		}

		// The blocked adder forces sifting to interleave its halves, so the
		// rebuild below runs against a non-identity order.
		m.IncRef(interleavedAdder(m, n/2))
		m.Sift()
		moved := false
		for l, v := range m.Order() {
			moved = moved || l != v
		}
		if !moved {
			t.Fatalf("n=%d: sifting kept the identity order", n)
		}
		for i, c := range cases {
			if got := m.FromMinterms(c.ms); got != held[i] {
				t.Fatalf("n=%d %s after sifting: FromMinterms = %d, held Ref %d", n, c.name, got, held[i])
			}
		}
	}
}
