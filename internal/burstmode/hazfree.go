// Package burstmode implements burst-mode machines (Section 6): Huffman-style
// asynchronous controllers operating under the fundamental mode assumption —
// after each burst of input events the environment lets the circuit stabilize
// before reacting to the outputs. Synthesis uses hazard-free two-level
// minimization in the style of Nowick–Dill (reference [22]): combinational
// covers guaranteed glitch-free for every specified multiple-input-change
// transition.
package burstmode

import (
	"fmt"

	"repro/internal/boolmin"
)

// DynTrans is a dynamic transition: the inputs change monotonically through
// the cube, and the function switches between the endpoints. Anchor is the
// endpoint where the function is 1 (the start for 1→0, the end for 0→1);
// hazard-freedom requires every product intersecting the cube to contain the
// anchor, so that products turn off (or on) at most once during the burst.
type DynTrans struct {
	Cube   boolmin.Cube
	Anchor uint64
}

// HFSpec is a hazard-free minimization problem over n variables.
type HFSpec struct {
	N int
	// Static1 cubes must each lie inside a single product of the cover
	// (static-1 hazard freedom).
	Static1 []boolmin.Cube
	// Static0 cubes must intersect no product.
	Static0 []boolmin.Cube
	// Dynamic transitions constrain intersecting products to contain the
	// anchor. The anchor is an on-set minterm; the rest of the cube is
	// don't-care (value falls/rises monotonically inside).
	Dynamic []DynTrans
}

// MinimizeHF computes a minimal hazard-free sum-of-products cover, or an
// error when none exists (some required cube has no legal implicant).
func MinimizeHF(spec HFSpec) (boolmin.Cover, error) {
	if spec.N > 20 {
		return boolmin.Cover{}, fmt.Errorf("burstmode: %d variables exceed the enumeration limit", spec.N)
	}
	on := map[uint64]bool{}
	off := map[uint64]bool{}
	mask := uint64(1)<<uint(spec.N) - 1
	forEachMinterm := func(c boolmin.Cube, f func(uint64)) {
		free := ^c.Care & mask
		var rec func(m, rem uint64)
		rec = func(m, rem uint64) {
			if rem == 0 {
				f(m)
				return
			}
			low := rem & (^rem + 1)
			rec(m, rem&^low)
			rec(m|low, rem&^low)
		}
		rec(c.Val, free)
	}
	for _, c := range spec.Static1 {
		forEachMinterm(c, func(m uint64) { on[m] = true })
	}
	for _, c := range spec.Static0 {
		forEachMinterm(c, func(m uint64) { off[m] = true })
	}
	for _, d := range spec.Dynamic {
		on[d.Anchor&mask] = true
		// The non-anchor endpoint is off; the interior is don't-care.
		other := otherEndpoint(d)
		off[other&mask] = true
	}
	for m := range on {
		if off[m] {
			return boolmin.Cover{}, fmt.Errorf("burstmode: minterm %b required both on and off", m)
		}
	}
	var onList, offList []uint64
	for m := range on {
		onList = append(onList, m)
	}
	for m := range off {
		offList = append(offList, m)
	}

	primes := boolmin.PrimesOnOff(onList, offList, spec.N)
	legal := dhfImplicants(primes, spec)

	// Required cubes: every static-1 cube, and every dynamic anchor.
	var required []boolmin.Cube
	required = append(required, spec.Static1...)
	for _, d := range spec.Dynamic {
		required = append(required, boolmin.MintermCube(d.Anchor, spec.N))
	}
	// Also every on-set minterm (subsumed by the above by construction).

	// Containment covering: greedy by coverage count.
	type item struct {
		cube    boolmin.Cube
		covered bool
	}
	items := make([]item, len(required))
	for i, r := range required {
		items[i] = item{cube: r}
	}
	var chosen []boolmin.Cube
	for {
		remaining := 0
		for _, it := range items {
			if !it.covered {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		best, bestGain := -1, 0
		for pi, p := range legal {
			gain := 0
			for _, it := range items {
				if !it.covered && p.Covers(it.cube) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			// Find a witness for the error message.
			for _, it := range items {
				if !it.covered {
					return boolmin.Cover{}, fmt.Errorf(
						"burstmode: required cube %s has no hazard-free implicant",
						it.cube.String(spec.N))
				}
			}
		}
		chosen = append(chosen, legal[best])
		for i := range items {
			if legal[best].Covers(items[i].cube) {
				items[i].covered = true
			}
		}
	}
	cv := boolmin.Cover{N: spec.N, Cubes: chosen}
	if err := CheckHazardFree(cv, spec); err != nil {
		return boolmin.Cover{}, fmt.Errorf("burstmode: internal: produced cover fails check: %w", err)
	}
	return cv, nil
}

// dhfImplicants filters and reduces primes against the privileged (dynamic)
// cubes: an implicant intersecting a dynamic cube without containing its
// anchor is shrunk away from the cube in all single-literal ways, to a
// fixpoint.
func dhfImplicants(primes []boolmin.Cube, spec HFSpec) []boolmin.Cube {
	seen := map[boolmin.Cube]bool{}
	var legal []boolmin.Cube
	queue := append([]boolmin.Cube(nil), primes...)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		violated := false
		for _, d := range spec.Dynamic {
			if !p.Intersects(d.Cube) || p.Contains(d.Anchor) {
				continue
			}
			violated = true
			// Shrink: add one literal contradicting the cube.
			for v := 0; v < spec.N; v++ {
				bit := uint64(1) << uint(v)
				if d.Cube.Care&bit == 0 || p.Care&bit != 0 {
					continue
				}
				q := p
				if d.Cube.Val&bit != 0 {
					q = q.WithLiteral(v, false)
				} else {
					q = q.WithLiteral(v, true)
				}
				queue = append(queue, q)
			}
			// Also shrink along the cube's free variables toward the anchor
			// side: adding the anchor's literal for a free-in-p variable of
			// the transition cube cannot separate... handled by the loop
			// above for care variables; free variables of d.Cube cannot
			// separate p from the cube.
			break
		}
		if !violated {
			legal = append(legal, p)
		}
	}
	// Drop dominated implicants.
	var out []boolmin.Cube
	for _, p := range legal {
		dominated := false
		for _, q := range legal {
			if p != q && q.Covers(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// CheckHazardFree verifies the three conditions on an arbitrary cover.
func CheckHazardFree(cv boolmin.Cover, spec HFSpec) error {
	for _, r := range spec.Static1 {
		inOne := false
		for _, p := range cv.Cubes {
			if p.Covers(r) {
				inOne = true
				break
			}
		}
		if !inOne {
			return fmt.Errorf("static-1 cube %s not inside a single product", r.String(spec.N))
		}
	}
	for _, z := range spec.Static0 {
		for _, p := range cv.Cubes {
			if p.Intersects(z) {
				return fmt.Errorf("product %s intersects static-0 cube %s",
					p.String(spec.N), z.String(spec.N))
			}
		}
	}
	for _, d := range spec.Dynamic {
		for _, p := range cv.Cubes {
			if p.Intersects(d.Cube) && !p.Contains(d.Anchor) {
				return fmt.Errorf("product %s illegally intersects dynamic cube %s",
					p.String(spec.N), d.Cube.String(spec.N))
			}
		}
	}
	return nil
}

// otherEndpoint returns the endpoint of the dynamic cube opposite the anchor.
func otherEndpoint(d DynTrans) uint64 {
	free := ^d.Cube.Care
	// Flip every free variable relative to the anchor.
	return (d.Anchor &^ free) | (^d.Anchor & free)
}

// TransitionCube builds the cube spanned by two minterms.
func TransitionCube(a, b uint64, n int) boolmin.Cube {
	mask := uint64(1)<<uint(n) - 1
	same := ^(a ^ b) & mask
	return boolmin.Cube{Val: a & same, Care: same}
}
