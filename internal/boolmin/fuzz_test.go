package boolmin

import (
	"cmp"
	"slices"
	"testing"
)

// fuzzFunc decodes a fuzz input into a function of 1..8 variables: byte m
// of spec (0 when spec is shorter) assigns minterm m to the don't-cares
// (b%3 == 0), the on-set (1) or the off-set (2). The on-set is listed in
// decreasing order, and a byte of 128 or more lists its on-minterm twice,
// so unsorted and duplicate on-minterms are exercised too.
func fuzzFunc(nb uint8, spec []byte) (n int, on, off []uint64) {
	n = 1 + int(nb%8)
	for m := uint64(1)<<uint(n) - 1; ; m-- {
		var b byte
		if m < uint64(len(spec)) {
			b = spec[m]
		}
		switch b % 3 {
		case 1:
			on = append(on, m)
			if b >= 128 {
				on = append(on, m)
			}
		case 2:
			off = append(off, m)
		}
		if m == 0 {
			break
		}
	}
	return n, on, off
}

// bruteForcePrimes is the test oracle for PrimesOnOff: it walks all 3^n
// cubes and keeps those that contain an on-minterm, contain no
// off-minterm, and hit the off-set when any one literal is dropped, in
// (literals, care, val) order.
func bruteForcePrimes(on, off []uint64, n int) []Cube {
	touchesAny := func(c Cube, ms []uint64) bool {
		for _, m := range ms {
			if c.Contains(m) {
				return true
			}
		}
		return false
	}
	var out []Cube
	for care := uint64(0); care < 1<<uint(n); care++ {
		for val := care; ; val = (val - 1) & care {
			c := Cube{Val: val, Care: care}
			if touchesAny(c, on) && !touchesAny(c, off) {
				prime := true
				for v := care; v != 0; v &= v - 1 {
					bit := v & -v
					if !touchesAny(Cube{Val: val &^ bit, Care: care &^ bit}, off) {
						prime = false
						break
					}
				}
				if prime {
					out = append(out, c)
				}
			}
			if val == 0 {
				break
			}
		}
	}
	slices.SortFunc(out, func(a, b Cube) int {
		if la, lb := a.Literals(), b.Literals(); la != lb {
			return la - lb
		}
		if c := cmp.Compare(a.Care, b.Care); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
	return out
}

// FuzzMinimizeOnOff checks the exact minimizer against a brute-force
// oracle: the generated primes are exactly the oracle's primes through an
// on-minterm, in order, and the cover is made of them, includes every
// on-minterm and no off-minterm.
func FuzzMinimizeOnOff(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 2, 1})
	f.Add(uint8(3), []byte{1, 0, 2, 1, 200, 0, 2, 1})
	f.Fuzz(func(t *testing.T, nb uint8, spec []byte) {
		n, on, off := fuzzFunc(nb, spec)
		got := PrimesOnOff(on, off, n)
		want := bruteForcePrimes(on, off, n)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d on=%v off=%v: primes\n got %v\nwant %v", n, on, off, got, want)
		}
		cv := MinimizeOnOff(on, off, n)
		for _, c := range cv.Cubes {
			if !slices.Contains(want, c) {
				t.Fatalf("cover cube %s is not a prime through an on-minterm", c.String(n))
			}
		}
		for _, m := range on {
			if !cv.Eval(m) {
				t.Fatalf("on-minterm %b uncovered by %s", m, cv.String())
			}
		}
		for _, m := range off {
			if cv.Eval(m) {
				t.Fatalf("off-minterm %b covered by %s", m, cv.String())
			}
		}
	})
}
