package boolmin

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCubeBasics(t *testing.T) {
	c := MintermCube(0b101, 3)
	if !c.Contains(0b101) || c.Contains(0b100) {
		t.Fatal("minterm cube containment broken")
	}
	if c.String(3) != "101" {
		t.Fatalf("String = %q", c.String(3))
	}
	full := FullCube()
	if !full.Covers(c) || c.Covers(full) {
		t.Fatal("full cube covering broken")
	}
	d := Cube{}.WithLiteral(0, true)
	if d.String(3) != "1--" || d.Literals() != 1 {
		t.Fatalf("WithLiteral: %q", d.String(3))
	}
	if !d.Intersects(c) {
		t.Fatal("1-- intersects 101")
	}
	e := Cube{}.WithLiteral(0, false)
	if e.Intersects(c) {
		t.Fatal("0-- does not intersect 101")
	}
	if got := c.Expr([]string{"a", "b", "c"}); got != "a b' c" {
		t.Fatalf("Expr = %q", got)
	}
	if got := full.Expr([]string{"a"}); got != "1" {
		t.Fatalf("full Expr = %q", got)
	}
}

// complement lists, in increasing order, the minterms of n variables in
// none of the given sets: the off-set of a function given by its on-set
// and don't-cares.
func complement(n int, sets ...[]uint64) []uint64 {
	in := map[uint64]bool{}
	for _, s := range sets {
		for _, m := range s {
			in[m] = true
		}
	}
	var out []uint64
	for m := uint64(0); m < uint64(1)<<uint(n); m++ {
		if !in[m] {
			out = append(out, m)
		}
	}
	return out
}

// isConstant reports whether the cover is constant 0 (no cubes) or
// constant 1 (some cube without literals).
func isConstant(cv Cover) (value, ok bool) {
	if len(cv.Cubes) == 0 {
		return false, true
	}
	for _, c := range cv.Cubes {
		if c.Care == 0 {
			return true, true
		}
	}
	return false, false
}

// checkEqualOn verifies two covers agree on every minterm of the care set.
func checkEqualOn(a, b Cover, care []uint64) error {
	for _, m := range care {
		if a.Eval(m) != b.Eval(m) {
			return fmt.Errorf("covers differ on minterm %b", m)
		}
	}
	return nil
}

// Classic example: f = Σm(4,8,10,11,12,15) d(9,14) over 4 vars: the
// minimal cover has 3 cubes.
func TestMinimizeCanonical(t *testing.T) {
	on := []uint64{4, 8, 10, 11, 12, 15}
	off := complement(4, on, []uint64{9, 14})
	cv := MinimizeOnOff(on, off, 4)
	checkCover(t, cv, on, off, 4)
	if len(cv.Cubes) > 3 {
		t.Fatalf("canonical example needs <= 3 cubes, got %d: %s", len(cv.Cubes), cv.String())
	}
}

func TestMinimizeXor(t *testing.T) {
	// XOR has no mergeable adjacent minterms: cover = the minterms.
	on := []uint64{0b01, 0b10}
	off := complement(2, on)
	cv := MinimizeOnOff(on, off, 2)
	checkCover(t, cv, on, off, 2)
	if len(cv.Cubes) != 2 || cv.Literals() != 4 {
		t.Fatalf("xor cover: %s", cv.String())
	}
}

func TestMinimizeTautology(t *testing.T) {
	var on []uint64
	for m := uint64(0); m < 8; m++ {
		on = append(on, m)
	}
	cv := MinimizeOnOff(on, nil, 3)
	if v, ok := isConstant(cv); !ok || !v {
		t.Fatalf("tautology must reduce to constant 1, got %s", cv.String())
	}
}

func TestMinimizeEmpty(t *testing.T) {
	cv := MinimizeOnOff(nil, complement(3, []uint64{1, 2}), 3)
	if v, ok := isConstant(cv); !ok || v {
		t.Fatalf("empty on-set must yield constant 0, got %s", cv.String())
	}
}

func TestMinimizeAllDontCareNeighbors(t *testing.T) {
	// on={0}, everything else don't-care: minimal cover is the full cube.
	cv := MinimizeOnOff([]uint64{0}, nil, 4)
	if len(cv.Cubes) != 1 || cv.Cubes[0].Care != 0 {
		t.Fatalf("want full cube, got %s", cv.String())
	}
}

// checkCover asserts correctness: every on-minterm covered, no off-minterm
// covered, every cube is prime (dropping any literal hits the off-set).
func checkCover(t *testing.T, cv Cover, on, off []uint64, n int) {
	t.Helper()
	for _, m := range on {
		if !cv.Eval(m) {
			t.Fatalf("on-set minterm %b not covered by %s", m, cv.String())
		}
	}
	for _, m := range off {
		if cv.Eval(m) {
			t.Fatalf("off-set minterm %b covered by %s", m, cv.String())
		}
	}
	for _, c := range cv.Cubes {
		for v := 0; v < n; v++ {
			bit := uint64(1) << uint(v)
			if c.Care&bit == 0 {
				continue
			}
			bigger := Cube{Val: c.Val &^ bit, Care: c.Care &^ bit}
			hitsOff := false
			for _, m := range off {
				if bigger.Contains(m) {
					hitsOff = true
					break
				}
			}
			if !hitsOff {
				t.Fatalf("cube %s is not prime in %s", c.String(n), cv.String())
			}
		}
	}
}

// Property: MinimizeOnOff is correct on random functions of 4..6 variables.
func TestQuickMinimizeCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		var on, off []uint64
		for m := uint64(0); m < uint64(1)<<uint(n); m++ {
			switch rng.Intn(3) {
			case 0:
				on = append(on, m)
			case 1:
				// don't-care
			default:
				off = append(off, m)
			}
		}
		cv := MinimizeOnOff(on, off, n)
		for _, m := range on {
			if !cv.Eval(m) {
				return false
			}
		}
		for _, m := range off {
			if cv.Eval(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the minimized cover never has more cubes than the on-set.
func TestQuickMinimizeNoWorse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		var on []uint64
		for m := uint64(0); m < 16; m++ {
			if rng.Intn(2) == 0 {
				on = append(on, m)
			}
		}
		cv := MinimizeOnOff(on, complement(n, on), n)
		return len(cv.Cubes) <= len(on)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverHelpers(t *testing.T) {
	cv := Cover{N: 3, Cubes: []Cube{
		Cube{}.WithLiteral(0, true).WithLiteral(1, false),
		Cube{}.WithLiteral(2, true),
	}}
	if cv.Literals() != 3 {
		t.Fatalf("literals = %d", cv.Literals())
	}
	if got := cv.Support(); len(got) != 3 {
		t.Fatalf("support = %v", got)
	}
	if got := cv.Expr([]string{"a", "b", "c"}); got != "a b' + c" {
		t.Fatalf("Expr = %q", got)
	}
	c2 := cv.Clone()
	c2.Cubes[0] = FullCube()
	if cv.Cubes[0].Care == 0 {
		t.Fatal("clone shares storage")
	}
	if err := checkEqualOn(cv, cv, []uint64{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	other := Cover{N: 3}
	if err := checkEqualOn(cv, other, []uint64{4}); err == nil {
		t.Fatal("differing covers must be detected")
	}
}
