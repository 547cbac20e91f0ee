package stubborn

import (
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/reach"
)

func TestTogglesMassiveReduction(t *testing.T) {
	net := gen.IndependentToggles(10)
	full, err := reach.Explore(net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Deadlocks) != 0 || len(full.Deadlocks()) != 0 {
		t.Fatal("toggles never deadlock")
	}
	if full.NumStates() != 1024 {
		t.Fatalf("full = %d", full.NumStates())
	}
	if red.States >= full.NumStates()/10 {
		t.Fatalf("stubborn must reduce drastically: %d vs %d", red.States, full.NumStates())
	}
}

func TestDeadlockPreservedPhilosophers(t *testing.T) {
	for _, n := range []int{3, 4} {
		net := gen.Philosophers(n)
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		red, err := Explore(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fullDead := len(full.Deadlocks()) > 0
		redDead := len(red.Deadlocks) > 0
		if fullDead != redDead {
			t.Fatalf("phil-%d: deadlock presence differs (full %v, reduced %v)", n, fullDead, redDead)
		}
		if !redDead {
			t.Fatalf("phil-%d must deadlock (all left forks taken)", n)
		}
		if red.States > full.NumStates() {
			t.Fatalf("phil-%d: reduction explored more states than full?!", n)
		}
		// Every deadlock marking found by the reduction is a true deadlock.
		for _, m := range red.Deadlocks {
			if len(net.EnabledList(m)) != 0 {
				t.Fatalf("phil-%d: false deadlock %s", n, m.Format(net))
			}
		}
	}
}

func TestDeadlockFoundInChain(t *testing.T) {
	// a -> p -> b, no cycle: deadlocks after b fires.
	net := petri.New("chain")
	a := net.AddTransition("a")
	b := net.AddTransition("b")
	p0 := net.AddPlace("p0", 1)
	p1 := net.AddPlace("p1", 0)
	p2 := net.AddPlace("p2", 0)
	net.ArcPT(p0, a)
	net.ArcTP(a, p1)
	net.ArcPT(p1, b)
	net.ArcTP(b, p2)
	red, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Deadlocks) != 1 {
		t.Fatalf("chain must deadlock exactly once, got %v", red.Deadlocks)
	}
	if red.Deadlocks[0][p2] != 1 {
		t.Fatal("deadlock must be the final marking")
	}
}

func TestStateLimit(t *testing.T) {
	net := gen.Philosophers(5)
	res, err := Explore(net, Options{Budget: &budget.Budget{MaxStates: 3}})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	var le budget.ErrLimit
	if !errors.As(err, &le) || le.Resource != budget.States || le.Limit != 3 {
		t.Fatalf("want budget.ErrLimit{States,3}, got %#v", err)
	}
	if res == nil || res.States != 3 {
		t.Fatalf("want partial result with exactly 3 states, got %+v", res)
	}
}

// No false deadlocks on live nets with choice.
func TestLiveChoiceNet(t *testing.T) {
	net := petri.New("choice")
	p0 := net.AddPlace("p0", 1)
	a := net.AddTransition("a")
	b := net.AddTransition("b")
	c := net.AddTransition("c")
	p1 := net.AddPlace("p1", 0)
	net.ArcPT(p0, a)
	net.ArcPT(p0, b)
	net.ArcTP(a, p1)
	net.ArcTP(b, p1)
	net.ArcPT(p1, c)
	net.ArcTP(c, p0)
	red, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Deadlocks) != 0 {
		t.Fatal("live net reported deadlocked")
	}
	if red.Arcs == 0 {
		t.Fatal("no exploration happened")
	}
}

// TestExploreDeterministic pins that the sharded-set-backed exploration is
// reproducible: repeated runs visit identical state/arc counts and the same
// deadlock markings.
func TestExploreDeterministic(t *testing.T) {
	net := gen.Philosophers(5)
	first, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Explore(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.States != first.States || again.Arcs != first.Arcs {
			t.Fatalf("run %d: %d states/%d arcs, first run %d/%d",
				i, again.States, again.Arcs, first.States, first.Arcs)
		}
		if len(again.Deadlocks) != len(first.Deadlocks) {
			t.Fatalf("run %d: %d deadlocks vs %d", i, len(again.Deadlocks), len(first.Deadlocks))
		}
		for j := range again.Deadlocks {
			if !again.Deadlocks[j].Equal(first.Deadlocks[j]) {
				t.Fatalf("run %d: deadlock %d differs", i, j)
			}
		}
	}
}

// TestTokenOverflow pins that the byte markings fail on the first firing
// that would put a 256th token in a place instead of wrapping it to zero.
// In the net, a+ returns p's token and adds one to q, and a- returns it
// and adds one to r.
func TestTokenOverflow(t *testing.T) {
	n := petri.New("wrap")
	p := n.AddPlace("p", 1)
	q := n.AddPlace("q", 0)
	r := n.AddPlace("r", 0)
	up := n.AddTransition("a+")
	dn := n.AddTransition("a-")
	n.ArcPT(p, up)
	n.ArcTP(up, p)
	n.ArcTP(up, q)
	n.ArcPT(p, dn)
	n.ArcTP(dn, p)
	n.ArcTP(dn, r)
	_, err := Explore(n, Options{})
	if !errors.Is(err, petri.ErrTokenOverflow) {
		t.Fatalf("got %v, want petri.ErrTokenOverflow", err)
	}
	if want := "petri: token count exceeds 255: firing a- puts a 256th token in r"; err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}
