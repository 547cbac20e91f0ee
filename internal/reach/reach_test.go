package reach

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/stg"
	"repro/internal/vme"
)

func TestExploreRing(t *testing.T) {
	n := petri.New("ring3")
	ts := make([]int, 3)
	for i := range ts {
		ts[i] = n.AddTransition(string(rune('a' + i)))
	}
	for i := 0; i < 3; i++ {
		init := 0
		if i == 2 {
			init = 1
		}
		p := n.AddPlace("p"+string(rune('0'+i)), init)
		n.ArcTP(ts[i], p)
		n.ArcPT(p, ts[(i+1)%3])
	}
	g, err := Explore(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 3 || g.NumArcs() != 3 {
		t.Fatalf("ring3: %d states, %d arcs", g.NumStates(), g.NumArcs())
	}
	if len(g.Deadlocks()) != 0 {
		t.Fatal("ring must be deadlock-free")
	}
	for i, live := range g.LiveTransitions() {
		if !live {
			t.Fatalf("transition %d should be live", i)
		}
	}
	if !g.IsSafe() {
		t.Fatal("ring is safe")
	}
}

func TestExploreDetectsUnsafe(t *testing.T) {
	// t produces into p twice via two parallel upstream firings.
	n := petri.New("unsafe")
	a := n.AddTransition("a")
	b := n.AddTransition("b")
	pa := n.AddPlace("pa", 1)
	pb := n.AddPlace("pb", 1)
	sink := n.AddPlace("sink", 0)
	n.ArcPT(pa, a)
	n.ArcPT(pb, b)
	n.ArcTP(a, sink)
	n.ArcTP(b, sink)
	if _, err := Explore(n, Options{RequireSafe: true}); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("want ErrUnsafe, got %v", err)
	}
	g, err := Explore(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsSafe() {
		t.Fatal("graph should contain a 2-token marking")
	}
}

func TestExploreStateLimit(t *testing.T) {
	// 10 independent toggles: 2^10 markings.
	n := petri.New("big")
	for i := 0; i < 10; i++ {
		s := string(rune('a' + i))
		t0 := n.AddTransition(s + "0")
		t1 := n.AddTransition(s + "1")
		p0 := n.AddPlace(s+"p0", 1)
		p1 := n.AddPlace(s+"p1", 0)
		n.ArcPT(p0, t0)
		n.ArcTP(t0, p1)
		n.ArcPT(p1, t1)
		n.ArcTP(t1, p0)
	}
	if _, err := Explore(n, Options{MaxStates: 100}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	g, err := Explore(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 1024 {
		t.Fatalf("independent toggles: %d states, want 1024", g.NumStates())
	}
}

// TestStateLimitExactAtInsertion pins the MaxStates cap: the abort happens
// at insertion time, with exactly MaxStates states explored, and a cap the
// space fits exactly is not an error.
func TestStateLimitExactAtInsertion(t *testing.T) {
	net := gen.IndependentToggles(6) // 64 states
	g, err := Explore(net, Options{MaxStates: 17})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	if g == nil || len(g.Markings) != 17 {
		t.Fatalf("abort must leave exactly MaxStates explored states, got %v", g)
	}
	g, err = Explore(net, Options{MaxStates: 64})
	if err != nil || g.NumStates() != 64 {
		t.Fatalf("exact-fit cap must succeed: %v %v", g, err)
	}
}

// TestBuildSGToggleStateLimit pins the same insertion-time semantics on the
// (marking, code) toggle exploration.
func TestBuildSGToggleStateLimit(t *testing.T) {
	g := toggleRingSpec(8)
	if _, err := BuildSG(g, Options{MaxStates: 3}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	if _, err := BuildSG(g, Options{}); err != nil {
		t.Fatalf("unbounded toggle SG: %v", err)
	}
}

func TestBuildSGToy(t *testing.T) {
	g := stg.New("toy")
	g.AddSignal("a", stg.Input)
	g.AddSignal("b", stg.Output)
	ap := g.Rise("a")
	bp := g.Rise("b")
	am := g.Fall("a")
	bm := g.Fall("b")
	g.Net.Chain(ap, bp, am, bm)
	g.Net.Implicit(bm, ap, 1)
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 4 {
		t.Fatalf("toy handshake: %d states, want 4", sg.NumStates())
	}
	if sg.States[sg.Initial].Code != 0 {
		t.Fatalf("initial code = %s, want 00", sg.States[sg.Initial].Code.String(2))
	}
	// Walk the unique cycle and check codes: 00 -> 10 -> 11 -> 01 -> 00.
	want := []string{"00", "10", "11", "01"}
	s := sg.Initial
	for i := 0; i < 4; i++ {
		if got := sg.States[s].Code.String(2); got != want[i] {
			t.Fatalf("step %d: code %s, want %s", i, got, want[i])
		}
		if len(sg.Out[s]) != 1 {
			t.Fatalf("step %d: %d arcs", i, len(sg.Out[s]))
		}
		s = sg.Out[s][0].To
	}
	if s != sg.Initial {
		t.Fatal("cycle must close")
	}
}

func TestBuildSGInfersInitialOne(t *testing.T) {
	// Signal starts high: first transition is a fall.
	g := stg.New("high")
	g.AddSignal("x", stg.Output)
	xm := g.Fall("x")
	xp := g.Rise("x")
	g.Net.Chain(xm, xp)
	g.Net.Implicit(xp, xm, 1)
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sg.States[sg.Initial].Code.Bit(0) {
		t.Fatal("x must be inferred initially 1")
	}
}

func TestBuildSGDetectsInconsistency(t *testing.T) {
	// x+ followed by x+ again: no alternation.
	g := stg.New("incons")
	g.AddSignal("x", stg.Output)
	a := g.Rise("x")
	b := g.Rise("x")
	g.Net.Chain(a, b)
	g.Net.Implicit(b, a, 1)
	if _, err := BuildSG(g, Options{}); err == nil ||
		!strings.Contains(err.Error(), "consistent") {
		t.Fatalf("want consistency error, got %v", err)
	}
}

func TestBuildSGDetectsPathInconsistency(t *testing.T) {
	// Two concurrent x+ transitions: the same marking is reached with
	// different parities of x.
	g := stg.New("pathincons")
	g.AddSignal("a", stg.Input)
	g.AddSignal("x", stg.Output)
	ap := g.Rise("a")
	x1 := g.Rise("x")
	x2 := g.Rise("x")
	join := g.Fall("a")
	n := g.Net
	n.Implicit(ap, x1, 0)
	n.Implicit(ap, x2, 0)
	n.Implicit(x1, join, 0)
	n.Implicit(x2, join, 0)
	n.Implicit(join, ap, 1)
	if _, err := BuildSG(g, Options{}); err == nil ||
		!strings.Contains(err.Error(), "consistent") {
		t.Fatalf("want consistency error, got %v", err)
	}
}

func TestBuildSGToggles(t *testing.T) {
	// Two toggle transitions in a ring: x alternates 0,1,0,1 — the SG
	// tracks (marking, code) pairs and normalizes every arc to a concrete
	// edge.
	g := stg.New("tog")
	g.AddSignal("x", stg.Output)
	a := g.AddTransition(0, stg.Toggle)
	b := g.AddTransition(0, stg.Toggle)
	g.Net.Chain(a, b)
	g.Net.Implicit(b, a, 1)
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", sg.NumStates())
	}
	// Arc labels are concrete edges.
	for s, arcs := range sg.Out {
		for _, arc := range arcs {
			if arc.Event.Dir == stg.Toggle {
				t.Fatal("toggle arcs must be normalized")
			}
			if arc.Event.Name != "x+" && arc.Event.Name != "x-" {
				t.Fatalf("arc name %q", arc.Event.Name)
			}
			_ = s
		}
	}
	if sg.States[sg.Initial].Code != 0 {
		t.Fatal("toggle SG starts at all-zero code")
	}
}

// A toggle spec where the same marking recurs with different codes: the
// (marking, code) state space distinguishes them.
func TestBuildSGToggleDistinguishesPhases(t *testing.T) {
	// Single toggle transition self-cycle: marking repeats every firing but
	// the code alternates: 2 states.
	g := stg.New("tog1")
	g.AddSignal("x", stg.Output)
	a := g.AddTransition(0, stg.Toggle)
	g.Net.Implicit(a, a, 1)
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 2 {
		t.Fatalf("phases not distinguished: %d states", sg.NumStates())
	}
}

func TestBuildSGDummiesKeepCode(t *testing.T) {
	g := stg.New("dum")
	g.AddSignal("x", stg.Output)
	xp := g.Rise("x")
	eps := g.AddDummy("eps")
	xm := g.Fall("x")
	g.Net.Chain(xp, eps, xm)
	g.Net.Implicit(xm, xp, 1)
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", sg.NumStates())
	}
	if !sg.HasDummy() {
		t.Fatal("dummy arc must be reported")
	}
	// The dummy arc must connect two states with the same code.
	for s, arcs := range sg.Out {
		for _, a := range arcs {
			if a.Event.Sig < 0 && sg.States[s].Code != sg.States[a.To].Code {
				t.Fatal("dummy transition changed the code")
			}
		}
	}
}

// TestFig4ReadSG is the E-F4 acceptance test: the READ-cycle SG of Figure 4
// has exactly 14 states, and the two underlined states share code 10110
// (<DSr,DTACK,LDTACK,LDS,D>) with different excitation for LDS and D.
func TestFig4ReadSG(t *testing.T) {
	sg, err := BuildSG(vme.ReadSTG(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() != 14 {
		t.Fatalf("Fig 4 SG: %d states, want 14\n%s", sg.NumStates(), sg.Dump())
	}
	// Initial state: all signals low, DSr excited.
	if sg.States[sg.Initial].Code != 0 {
		t.Fatalf("initial code %s, want 00000", sg.States[sg.Initial].Code.String(5))
	}
	// Exactly one pair of states shares a code.
	byCode := sg.StatesByCode()
	var confl []int
	for _, grp := range byCode {
		if len(grp) > 1 {
			if len(grp) != 2 || confl != nil {
				t.Fatalf("want exactly one conflicting pair, got %v", byCode)
			}
			confl = grp
		}
	}
	if confl == nil {
		t.Fatal("expected one code conflict (the CSC problem of Fig 4)")
	}
	code := sg.States[confl[0]].Code
	order := []string{"DSr", "DTACK", "LDTACK", "LDS", "D"}
	got := ""
	for _, name := range order {
		if code.Bit(sg.SignalIndex(name)) {
			got += "1"
		} else {
			got += "0"
		}
	}
	if got != "10110" {
		t.Fatalf("conflict code = %s, want 10110", got)
	}
	// LDS and D excitation differ between the two states.
	for _, name := range []string{"LDS", "D"} {
		sig := sg.SignalIndex(name)
		_, exA := sg.Excited(confl[0], sig)
		_, exB := sg.Excited(confl[1], sig)
		if exA == exB {
			t.Fatalf("signal %s must have differing excitation in the conflict pair", name)
		}
	}
	// 14 states, 13 distinct codes.
	if sg.DistinctCodes() != 13 {
		t.Fatalf("distinct codes = %d, want 13", sg.DistinctCodes())
	}
}

// TestFig3WaveformEqualsSTG cross-checks the two construction paths.
func TestFig3WaveformEqualsSTG(t *testing.T) {
	g := vme.ReadSTG()
	if !g.Net.IsMarkedGraph() {
		t.Fatal("Fig 3 STG must be a marked graph")
	}
	if !g.Net.StronglyConnected() {
		t.Fatal("Fig 3 STG must be strongly connected")
	}
	if g.Net.InitialMarking().Tokens() != 2 {
		t.Fatal("Fig 3 initial marking has two tokens")
	}
}

// TestFig5ReadWrite checks the choice structure of Figure 5 and that the
// combined SG is consistent and safe.
func TestFig5ReadWrite(t *testing.T) {
	g := vme.ReadWriteSTG()
	choices := g.Net.ChoicePlaces()
	if len(choices) != 2 {
		t.Fatalf("Fig 5 has 2 choice places, got %d", len(choices))
	}
	if g.Net.IsMarkedGraph() {
		t.Fatal("Fig 5 STG has choice: not a marked graph")
	}
	sg, err := BuildSG(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumStates() < 20 {
		t.Fatalf("read+write SG suspiciously small: %d states", sg.NumStates())
	}
	if len(sg.Deadlocks()) != 0 {
		t.Fatal("read+write SG must be deadlock-free")
	}
	// Both request transitions are enabled initially (the environment's
	// choice), and they disable each other.
	var names []string
	for _, a := range sg.Out[sg.Initial] {
		names = append(names, a.Event.Name)
	}
	if len(names) != 2 {
		t.Fatalf("initial state must offer the read/write choice, got %v", names)
	}
}
