package bdd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolmin"
)

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if m.Eval(True, 0) != true || m.Eval(False, 7) != false {
		t.Fatal("terminal evaluation broken")
	}
	x := m.Var(0)
	if !m.Eval(x, 0b001) || m.Eval(x, 0b110) {
		t.Fatal("Var evaluation broken")
	}
	nx := m.NVar(0)
	if m.Eval(nx, 0b001) || !m.Eval(nx, 0b110) {
		t.Fatal("NVar evaluation broken")
	}
	if m.Var(1) != m.Var(1) {
		t.Fatal("hash consing broken: same var must be same ref")
	}
}

func TestBooleanOps(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c) // ab + c
	for env := uint64(0); env < 8; env++ {
		want := (env&1 != 0 && env&2 != 0) || env&4 != 0
		if m.Eval(f, env) != want {
			t.Fatalf("ab+c wrong at %03b", env)
		}
	}
	if m.Not(m.Not(f)) != f {
		t.Fatal("double negation must be identity (canonicity)")
	}
	if m.Xor(f, f) != False || m.Xor(f, m.Not(f)) != True {
		t.Fatal("xor identities broken")
	}
	if m.Diff(f, f) != False {
		t.Fatal("f\\f must be false")
	}
	if m.AndN(a, b, c) != m.And(a, m.And(b, c)) {
		t.Fatal("AndN broken")
	}
	if m.OrN() != False || m.AndN() != True {
		t.Fatal("empty folds broken")
	}
}

func TestRestrictAndQuantify(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	if m.Restrict(f, 0, true) != b {
		t.Fatal("restrict a=1 of ab must be b")
	}
	if m.Restrict(f, 0, false) != False {
		t.Fatal("restrict a=0 of ab must be false")
	}
	if m.Exists(f, []int{0}) != b {
		t.Fatal("∃a.ab must be b")
	}
	if m.Forall(f, []int{0}) != False {
		t.Fatal("∀a.ab must be false")
	}
	g := m.Or(a, b)
	if m.Forall(g, []int{0}) != b {
		t.Fatal("∀a.(a+b) must be b")
	}
	if m.Exists(g, []int{0, 1}) != True {
		t.Fatal("∃ab.(a+b) must be true")
	}
}

func TestAndExists(t *testing.T) {
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c)
	g := m.Or(a, m.Var(3))
	want := m.Exists(m.And(f, g), []int{0, 1})
	got := m.AndExists(f, g, []int{0, 1})
	if want != got {
		t.Fatal("AndExists must equal Exists∘And")
	}
}

func TestSatCount(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	if got := m.SatCount(True); got != 16 {
		t.Fatalf("SatCount(true) = %v", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("SatCount(false) = %v", got)
	}
	if got := m.SatCount(a); got != 8 {
		t.Fatalf("SatCount(a) = %v", got)
	}
	if got := m.SatCount(m.And(a, b)); got != 4 {
		t.Fatalf("SatCount(ab) = %v", got)
	}
	if got := m.SatCount(m.Xor(a, b)); got != 8 {
		t.Fatalf("SatCount(a^b) = %v", got)
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.Var(4))
	sup := m.Support(f)
	if len(sup) != 3 || sup[0] != 0 || sup[1] != 3 || sup[2] != 4 {
		t.Fatalf("support = %v", sup)
	}
}

func TestAnySat(t *testing.T) {
	m := New(3)
	if _, ok := m.AnySat(False); ok {
		t.Fatal("false has no satisfying assignment")
	}
	f := m.And(m.NVar(0), m.Var(2))
	env, ok := m.AnySat(f)
	if !ok || !m.Eval(f, env) {
		t.Fatalf("AnySat returned non-satisfying %b", env)
	}
}

func TestEvalVecAnySatVec(t *testing.T) {
	// 80 variables exceeds the uint64 Eval/AnySat limit; the vector forms
	// must agree with the scalar ones on the low variables and handle the
	// high ones.
	m := New(80)
	f := m.AndN(m.NVar(0), m.Var(2), m.Var(70))
	if _, ok := m.AnySatVec(False); ok {
		t.Fatal("false has no satisfying assignment")
	}
	env, ok := m.AnySatVec(f)
	if !ok || !m.EvalVec(f, env) {
		t.Fatalf("AnySatVec returned non-satisfying %v", env)
	}
	if env[0] || !env[2] || !env[70] {
		t.Fatalf("AnySatVec assignment wrong: %v", env)
	}
	// Short env vectors read missing variables as false.
	if m.EvalVec(f, []bool{false, false, true}) {
		t.Fatal("EvalVec must treat out-of-range variables as false")
	}
	if !m.EvalVec(m.NVar(70), nil) {
		t.Fatal("EvalVec(nil) must satisfy a negated high variable")
	}
	// Agreement with scalar Eval on low variables.
	g := m.And(m.Var(1), m.NVar(3))
	for _, e := range []uint64{0, 0b0010, 0b1010, 0b0110} {
		vec := make([]bool, 64)
		for i := range vec {
			vec[i] = e&(1<<uint(i)) != 0
		}
		if m.Eval(g, e) != m.EvalVec(g, vec) {
			t.Fatalf("Eval and EvalVec disagree on %b", e)
		}
	}
}

func TestCube(t *testing.T) {
	m := New(3)
	f := m.Cube([]int{0, 2}, []bool{true, false})
	if !m.Eval(f, 0b001) || m.Eval(f, 0b101) || m.Eval(f, 0b000) {
		t.Fatal("cube evaluation broken")
	}
}

// Property: BDD operations agree with truth-table semantics on random
// 5-variable expressions.
func TestQuickAgainstTruthTable(t *testing.T) {
	const n = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(n)
		// Random expression tree over 6 ops.
		var tt func(depth int) (Ref, func(uint64) bool)
		tt = func(depth int) (Ref, func(uint64) bool) {
			if depth == 0 || rng.Intn(3) == 0 {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					return m.Var(v), func(e uint64) bool { return e&(1<<uint(v)) != 0 }
				}
				return m.NVar(v), func(e uint64) bool { return e&(1<<uint(v)) == 0 }
			}
			l, lf := tt(depth - 1)
			r, rf := tt(depth - 1)
			switch rng.Intn(3) {
			case 0:
				return m.And(l, r), func(e uint64) bool { return lf(e) && rf(e) }
			case 1:
				return m.Or(l, r), func(e uint64) bool { return lf(e) || rf(e) }
			default:
				return m.Xor(l, r), func(e uint64) bool { return lf(e) != rf(e) }
			}
		}
		ref, eval := tt(4)
		count := 0.0
		for e := uint64(0); e < 1<<n; e++ {
			if m.Eval(ref, e) != eval(e) {
				return false
			}
			if eval(e) {
				count++
			}
		}
		return m.SatCount(ref) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ISOP produces a cover G with L ⊆ G ⊆ U, verified pointwise.
func TestQuickISOP(t *testing.T) {
	const n = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(n)
		var onM, dcM []uint64
		for e := uint64(0); e < 1<<n; e++ {
			switch rng.Intn(3) {
			case 0:
				onM = append(onM, e)
			case 1:
				dcM = append(dcM, e)
			}
		}
		l := m.FromMinterms(onM)
		u := m.Or(l, m.FromMinterms(dcM))
		cv := m.ISOP(l, u)
		for e := uint64(0); e < 1<<n; e++ {
			g := cv.Eval(e)
			if m.Eval(l, e) && !g {
				return false // on-set not covered
			}
			if g && !m.Eval(u, e) {
				return false // off-set covered
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestISOPSimple(t *testing.T) {
	m := New(3)
	// f = ab + c exactly (no don't cares).
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2))
	cv := m.ISOP(f, f)
	if len(cv.Cubes) != 2 {
		t.Fatalf("isop(ab+c) = %s", cv.String())
	}
	if m.FromCover(cv) != f {
		t.Fatal("FromCover(ISOP(f)) must rebuild f")
	}
}

func TestFromCoverRoundTrip(t *testing.T) {
	m := New(4)
	cv := boolmin.Cover{N: 4, Cubes: []boolmin.Cube{
		boolmin.FullCube().WithLiteral(0, true).WithLiteral(2, false),
		boolmin.FullCube().WithLiteral(3, true),
	}}
	f := m.FromCover(cv)
	for e := uint64(0); e < 16; e++ {
		if m.Eval(f, e) != cv.Eval(e) {
			t.Fatalf("mismatch at %04b", e)
		}
	}
}

func TestVarPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range var must panic")
		}
	}()
	m.Var(5)
}

func TestSatCountBig(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	for _, tc := range []struct {
		f    Ref
		want int64
	}{
		{True, 16}, {False, 0}, {a, 8}, {m.And(a, b), 4}, {m.Xor(a, b), 8},
	} {
		if got := m.SatCountBig(tc.f); got.Cmp(big.NewInt(tc.want)) != 0 {
			t.Fatalf("SatCountBig = %v, want %d", got, tc.want)
		}
	}
}

// TestSatCountBigBeyondFloat64 checks exactness where the float64 SatCount
// cannot represent the answer: 2^60+1 assignments is not a float64 value.
func TestSatCountBigBeyondFloat64(t *testing.T) {
	m := New(60)
	// f = (v0 ∧ v1 ∧ ... ∧ v58) ∨ ¬v0: a cube of 2 assignments over v0..v58
	// unioned with half the space. Exact count = 2^59 + 2.
	cube := True
	for v := 0; v < 59; v++ {
		cube = m.And(cube, m.Var(v))
	}
	f := m.Or(cube, m.NVar(0))
	want := new(big.Int).Lsh(big.NewInt(1), 59)
	want.Add(want, big.NewInt(2))
	if got := m.SatCountBig(f); got.Cmp(want) != 0 {
		t.Fatalf("SatCountBig = %v, want %v", got, want)
	}
	// The float64 count agrees only up to rounding: it cannot see the +2.
	if got := m.SatCount(f); math.Abs(got-math.Exp2(59)) > 1e4 {
		t.Fatalf("SatCount far from 2^59: %v", got)
	}
}
