package boolmin

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
)

// MinimizeOnOff minimizes the incompletely specified function that is 1 on
// the on-set minterms, 0 on the off-set minterms and free everywhere else;
// on and off must be disjoint. Up to 14 variables the cover is exact: every
// prime implicant through an on-minterm comes from PrimesOnOff, and the
// cover is chosen from them by essential primes plus Petrick's method (or a
// greedy set cover on large residual problems). Wider functions use
// espresso-style expand and irredundant cover against the off-set. Neither
// path enumerates the don't-care space.
func MinimizeOnOff(on, off []uint64, n int) Cover {
	if len(on) == 0 {
		return Cover{N: n}
	}
	if n <= 14 {
		return Cover{N: n, Cubes: selectCover(PrimesOnOff(on, off, n), on, n)}
	}
	return expandCover(on, off, n)
}

// PrimesOnOff returns every prime implicant of the function (on and off as
// for MinimizeOnOff) that contains an on-minterm, ordered by literal count,
// then care mask, then value. Primes covering only don't-cares are never
// generated.
//
// The primes are computed from the off-set alone. A cube through on-minterm
// m with care mask C misses off-minterm o iff C intersects m⊕o, so the
// primes through m are exactly the cubes whose care masks are minimal
// hitting sets of the edges {m⊕o : o ∈ off} — the minimal column covers of
// espresso's blocking matrix. Each on-minterm's edges are bucketed by
// popcount and reduced to the inclusion-minimal ones before the hitting
// sets are enumerated; primes through several on-minterms are deduplicated
// at the end.
func PrimesOnOff(on, off []uint64, n int) []Cube {
	mask := maskN(n)
	ms := make([]uint64, len(on))
	for i, m := range on {
		ms[i] = m & mask
	}
	slices.Sort(ms)
	ms = slices.Compact(ms)
	g := primeGen{buckets: make([][]uint64, bits.OnesCount64(mask)+1)}
	for _, m := range ms {
		g.through(m, off, mask)
	}
	slices.SortFunc(g.primes, func(a, b Cube) int {
		if la, lb := a.Literals(), b.Literals(); la != lb {
			return la - lb
		}
		if c := cmp.Compare(a.Care, b.Care); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
	return slices.Compact(g.primes)
}

// primeGen is the scratch of one PrimesOnOff call, reused across on-minterms.
type primeGen struct {
	buckets [][]uint64 // edges by popcount
	// edges are the inclusion-minimal edges of more than one variable, by
	// ascending popcount; forced holds the one-variable edges, which every
	// prime through m contains and no kept edge intersects.
	edges  []uint64
	forced uint64
	m      uint64 // the on-minterm whose primes are being enumerated
	primes []Cube
}

// through appends the primes containing on-minterm m.
func (g *primeGen) through(m uint64, off []uint64, mask uint64) {
	// An edge of one variable forces that literal into every prime through
	// m, and any edge containing it is then already hit: one AND drops it
	// before it is bucketed.
	var forced uint64
	for _, o := range off {
		if e := (m ^ o) & mask; e&(e-1) == 0 {
			forced |= e
		}
	}
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	for _, o := range off {
		if e := (m ^ o) & mask; e&forced == 0 {
			p := bits.OnesCount64(e)
			g.buckets[p] = append(g.buckets[p], e)
		}
	}
	g.edges = g.edges[:0]
	for _, bucket := range g.buckets {
		for _, e := range bucket {
			if !g.implied(e) {
				g.edges = append(g.edges, e)
			}
		}
	}
	g.m, g.forced = m, forced
	g.hit(forced, 0)
}

// implied reports whether a kept edge is a subset of e: every care mask
// hitting the kept edge hits e too. Kept edges are no larger than e, so an
// equal edge is caught as well.
func (g *primeGen) implied(e uint64) bool {
	for _, k := range g.edges {
		if k&^e == 0 {
			return true
		}
	}
	return false
}

// hit enumerates the minimal hitting sets of g.edges that contain chosen and
// avoid banned, appending the prime through g.m of each. It branches on the
// unhit edge with the fewest allowed variables; banning the variables of
// earlier branches makes every hitting set reachable along exactly one
// path. A chosen variable that no longer hits some edge alone cannot belong
// to a minimal hitting set of any superset, so such a branch is cut. The
// forced variables are chosen from the start and keep their one-variable
// edges private.
func (g *primeGen) hit(chosen, banned uint64) {
	best, bestN := uint64(0), 65
	var private uint64
	for _, e := range g.edges {
		x := e & chosen
		if x == 0 {
			c := e &^ banned
			if c == 0 {
				return
			}
			if k := bits.OnesCount64(c); k < bestN {
				best, bestN = c, k
			}
		} else if x&(x-1) == 0 {
			private |= x
		}
	}
	if private != chosen&^g.forced {
		return
	}
	if best == 0 {
		g.primes = append(g.primes, Cube{Val: g.m & chosen, Care: chosen})
		return
	}
	for c := best; c != 0; c &= c - 1 {
		v := c & -c
		g.hit(chosen|v, banned)
		banned |= v
	}
}

// Expand returns a maximal implicant containing minterm m that avoids every
// off-set minterm, dropping literals in ascending variable order. Literals
// whose variable bit is set in keep are never dropped — used to force a
// specific wire into the cube (resubstitution with acknowledgment).
func Expand(m uint64, off []uint64, n int, keep uint64) Cube {
	mask := maskN(n)
	c := Cube{Val: m & mask, Care: mask}
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v)
		if keep&bit != 0 || c.Care&bit == 0 {
			continue
		}
		try := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
		clash := false
		for _, o := range off {
			if try.Contains(o & mask) {
				clash = true
				break
			}
		}
		if !clash {
			c = try
		}
	}
	return c
}

// expandCover generates maximally expanded implicants from each on-set
// minterm (two literal orders for diversity), removes dominated cubes, and
// greedily covers the on-set.
func expandCover(on, off []uint64, n int) Cover {
	mask := maskN(n)
	seen := map[uint64]bool{}
	var uniq []uint64
	for _, m := range on {
		m &= mask
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })

	clashesOff := func(c Cube) bool {
		for _, m := range off {
			if c.Contains(m & mask) {
				return true
			}
		}
		return false
	}
	expand := func(m uint64, ascending bool) Cube {
		c := Cube{Val: m, Care: mask}
		for k := 0; k < n; k++ {
			v := k
			if !ascending {
				v = n - 1 - k
			}
			bit := uint64(1) << uint(v)
			if c.Care&bit == 0 {
				continue
			}
			try := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
			if !clashesOff(try) {
				c = try
			}
		}
		return c
	}

	cubeSet := map[Cube]bool{}
	var cubes []Cube
	for _, m := range uniq {
		for _, asc := range []bool{true, false} {
			c := expand(m, asc)
			if !cubeSet[c] {
				cubeSet[c] = true
				cubes = append(cubes, c)
			}
		}
	}
	// Drop dominated cubes.
	sort.Slice(cubes, func(i, j int) bool { return cubes[i].Literals() < cubes[j].Literals() })
	var cands []Cube
	for _, c := range cubes {
		dominated := false
		for _, d := range cands {
			if d.Covers(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			cands = append(cands, c)
		}
	}
	// Greedy cover of the on-set.
	remaining := map[uint64]bool{}
	for _, m := range uniq {
		remaining[m] = true
	}
	var pick []Cube
	for len(remaining) > 0 {
		best, bestGain := -1, 0
		for i, c := range cands {
			gain := 0
			for m := range remaining {
				if c.Contains(m) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		pick = append(pick, cands[best])
		for m := range remaining {
			if cands[best].Contains(m) {
				delete(remaining, m)
			}
		}
	}
	sortCubes(pick)
	return Cover{N: n, Cubes: pick}
}
