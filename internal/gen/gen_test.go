package gen

import (
	"testing"

	"repro/internal/reach"
)

func TestMullerPipelineShape(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		g := MullerPipeline(n)
		if err := g.Validate(); err != nil {
			t.Fatalf("muller-%d: %v", n, err)
		}
		if len(g.Signals) != 2*n || len(g.Net.Transitions) != 4*n {
			t.Fatalf("muller-%d: %d signals, %d transitions", n, len(g.Signals), len(g.Net.Transitions))
		}
		sg, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			t.Fatalf("muller-%d: %v", n, err)
		}
		if len(sg.Deadlocks()) != 0 {
			t.Fatalf("muller-%d deadlocks", n)
		}
		if !sg.CheckImplementability().Consistent {
			t.Fatalf("muller-%d inconsistent", n)
		}
	}
}

func TestMullerPipelineGrowth(t *testing.T) {
	prev := 0
	for _, n := range []int{2, 3, 4} {
		g := MullerPipeline(n)
		rg, err := reach.Explore(g.Net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rg.NumStates() <= prev {
			t.Fatalf("state count must grow with depth: %d then %d", prev, rg.NumStates())
		}
		prev = rg.NumStates()
	}
}

func TestIndependentToggles(t *testing.T) {
	net := IndependentToggles(6)
	rg, err := reach.Explore(net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rg.IsSafe() {
		t.Fatal("the net must be safe")
	}
	if rg.NumStates() != 64 {
		t.Fatalf("toggles-6: %d states, want 64", rg.NumStates())
	}
	if len(rg.Deadlocks()) != 0 {
		t.Fatal("toggles never deadlock")
	}
}

func TestMarkedGraphRing(t *testing.T) {
	net := MarkedGraphRing(5, 1)
	if !net.IsMarkedGraph() || !net.StronglyConnected() {
		t.Fatal("ring must be a strongly connected MG")
	}
	rg, err := reach.Explore(net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rg.IsSafe() {
		t.Fatal("the net must be safe")
	}
	if rg.NumStates() != 5 {
		t.Fatalf("single-token ring of 5: %d states", rg.NumStates())
	}
}

func TestPhilosophers(t *testing.T) {
	net := Philosophers(3)
	rg, err := reach.Explore(net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rg.IsSafe() {
		t.Fatal("the net must be safe")
	}
	if len(rg.Deadlocks()) == 0 {
		t.Fatal("philosophers must be able to deadlock")
	}
	// The deadlock is the all-left-forks marking: every hasL marked.
	dead := rg.Markings[rg.Deadlocks()[0]]
	for i := 0; i < 3; i++ {
		if dead[net.PlaceIndex("hasL"+string(rune('0'+i)))] != 1 {
			t.Fatal("deadlock must be the circular-wait marking")
		}
	}
}

// TestCSCRing pins the family's contract: a live safe marked graph with
// 6k transitions and 6k states, conflict-rich (at least 2 CSC conflict pairs
// per stage) but persistent and deadlock-free, so the only missing
// implementability property is state coding.
func TestCSCRing(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := CSCRing(k)
		if err := g.Validate(); err != nil {
			t.Fatalf("cscring-%d: %v", k, err)
		}
		if !g.Net.IsMarkedGraph() || !g.Net.StronglyConnected() {
			t.Fatalf("cscring-%d must be a strongly connected marked graph", k)
		}
		if len(g.Net.Transitions) != 6*k || len(g.Signals) != 2*k {
			t.Fatalf("cscring-%d: %d transitions, %d signals",
				k, len(g.Net.Transitions), len(g.Signals))
		}
		sg, err := reach.BuildSG(g, reach.Options{})
		if err != nil {
			t.Fatalf("cscring-%d: %v", k, err)
		}
		if sg.NumStates() != 6*k {
			t.Fatalf("cscring-%d: %d states, want %d", k, sg.NumStates(), 6*k)
		}
		imp := sg.CheckImplementability()
		if !imp.Consistent || !imp.Persistent || !imp.DeadlockFree {
			t.Fatalf("cscring-%d: %v", k, imp)
		}
		if imp.CSC {
			t.Fatalf("cscring-%d must have CSC conflicts", k)
		}
		if got := len(sg.CSCConflicts()); got < 2*k {
			t.Fatalf("cscring-%d: %d conflicts, want >= %d", k, got, 2*k)
		}
	}
	if CSCRing(0).Name() != "cscring-2" {
		t.Fatal("k < 2 must clamp to 2")
	}
}

func TestPipelineSTGDepth(t *testing.T) {
	if PipelineSTGDepth(4) != 16 || PipelineSTGDepth(40) != 1<<30 {
		t.Fatal("depth estimate broken")
	}
}
