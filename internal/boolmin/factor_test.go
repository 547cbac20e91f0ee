package boolmin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// cover builds a cover from positional patterns like "1-0".
func cover(t *testing.T, pats ...string) Cover {
	t.Helper()
	n := len(pats[0])
	cv := Cover{N: n}
	for _, p := range pats {
		c := FullCube()
		for i, ch := range p {
			switch ch {
			case '1':
				c = c.WithLiteral(i, true)
			case '0':
				c = c.WithLiteral(i, false)
			}
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv
}

func TestDivideByLiteral(t *testing.T) {
	// f = ab + ac + d  (vars a,b,c,d)
	f := cover(t, "11--", "1-1-", "---1")
	q, r := f.DivideByLiteral(0, true)
	if len(q.Cubes) != 2 || len(r.Cubes) != 1 {
		t.Fatalf("q=%s r=%s", q.String(), r.String())
	}
	// q = b + c
	if got := q.Expr([]string{"a", "b", "c", "d"}); got != "b + c" {
		t.Fatalf("quotient = %q", got)
	}
}

func TestDivide(t *testing.T) {
	// f = ab + ac + db + dc + e = (a+d)(b+c) + e
	names := []string{"a", "b", "c", "d", "e"}
	f := cover(t, "11---", "1-1--", "-1-1-", "--11-", "----1")
	d := cover(t, "-1---", "--1--") // b + c
	q, r := f.Divide(d)
	if got := q.Expr(names); got != "a + d" {
		t.Fatalf("quotient = %q", got)
	}
	if got := r.Expr(names); got != "e" {
		t.Fatalf("remainder = %q", got)
	}
	// Dividing by an empty cover returns everything as remainder.
	q2, r2 := f.Divide(Cover{N: 5})
	if len(q2.Cubes) != 0 || len(r2.Cubes) != len(f.Cubes) {
		t.Fatal("division by empty cover broken")
	}
}

func TestKernels(t *testing.T) {
	// f = adf + aef + bdf + bef + cdf + cef + g
	//   = ((a+b+c)(d+e))f + g ; kernels include a+b+c and d+e.
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	f := cover(t,
		"1--1-1-", "1---11-", "-1-1-1-", "-1--11-", "--11-1-", "--1-11-", "------1")
	ks := f.Kernels()
	want := map[string]bool{"a + b + c": false, "d + e": false}
	for _, k := range ks {
		e := k.Kernel.Expr(names)
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for e, found := range want {
		if !found {
			t.Fatalf("kernel %q not found; got %d kernels", e, len(ks))
		}
	}
}

func TestCubeFree(t *testing.T) {
	if !cover(t, "1--", "-1-").CubeFree() {
		t.Fatal("a + b is cube-free")
	}
	if cover(t, "11-", "1-1").CubeFree() {
		t.Fatal("ab + ac is not cube-free (common a)")
	}
	if !(Cover{N: 3}).CubeFree() {
		t.Fatal("empty cover is cube-free")
	}
}

// Property: algebraic division invariant f == q*d + r as Boolean functions,
// on random covers.
func TestQuickDivisionInvariant(t *testing.T) {
	names := 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cv := randCover(rng, names, 1+rng.Intn(6))
		d := randCover(rng, names, 1+rng.Intn(3))
		q, r := cv.Divide(d)
		for m := uint64(0); m < uint64(1)<<uint(names); m++ {
			qd := false
			if q.Eval(m) && d.Eval(m) {
				qd = true
			}
			lhs := cv.Eval(m)
			rhs := qd || r.Eval(m)
			// Algebraic identity gives f ⊇ q*d + r is exact equality.
			if lhs != rhs && (qd || r.Eval(m)) != lhs {
				// q*d+r may under-approximate only if division dropped
				// cubes, which the algorithm never does: require equality.
				return false
			}
			if lhs != rhs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randCover(rng *rand.Rand, n, cubes int) Cover {
	cv := Cover{N: n}
	for i := 0; i < cubes; i++ {
		c := FullCube()
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c = c.WithLiteral(v, true)
			case 1:
				c = c.WithLiteral(v, false)
			}
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv
}
