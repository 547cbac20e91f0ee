package reach_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

// The reference explorer below is a plain breadth-first token game over
// petri.Marking bytes with a map[string]int visited set. It shares no code
// with the packed markings, the codecs or the state index, so the
// comparisons against it check their exactness: the same numbering, codes,
// arcs, labels and error texts.

// refGraph is the reference reachability graph.
type refGraph struct {
	markings []petri.Marking
	out      [][]reach.Step
}

// refExplore explores n breadth-first. Under safe a firing that puts a
// second token in a place fails; otherwise a firing that puts a 256th
// token in one does. An exploration that would exceed maxStates stops
// with the partial graph.
func refExplore(n *petri.Net, safe bool, maxStates int) (*refGraph, error) {
	init := n.InitialMarking()
	if safe && !init.Safe() {
		return nil, fmt.Errorf("%w: initial marking %s", reach.ErrUnsafe, init.Format(n))
	}
	g := &refGraph{markings: []petri.Marking{init}}
	index := map[string]int{string(init): 0}
	for head := 0; head < len(g.markings); head++ {
		m := g.markings[head]
		g.out = append(g.out, nil)
		for t, tr := range n.Transitions {
			enabled := true
			for _, p := range tr.Pre {
				enabled = enabled && m[p] > 0
			}
			if !enabled {
				continue
			}
			counts := make([]int, len(m))
			for p, v := range m {
				counts[p] = int(v)
			}
			for _, p := range tr.Pre {
				counts[p]--
			}
			for _, p := range tr.Post {
				counts[p]++
				switch {
				case safe && counts[p] > 1:
					return nil, fmt.Errorf("%w: firing %s from %s", reach.ErrUnsafe, tr.Name, m.Format(n))
				case counts[p] > 255:
					return nil, fmt.Errorf("%w: firing %s puts a 256th token in %s",
						petri.ErrTokenOverflow, tr.Name, n.Places[p].Name)
				}
			}
			next := make(petri.Marking, len(m))
			for p, v := range counts {
				next[p] = byte(v)
			}
			to, ok := index[string(next)]
			if !ok {
				if len(g.markings) >= maxStates {
					return g, budget.LimitStates(maxStates, len(g.markings))
				}
				to = len(g.markings)
				index[string(next)] = to
				g.markings = append(g.markings, next)
			}
			g.out[head] = append(g.out[head], reach.Step{Transition: t, To: to})
		}
	}
	return g, nil
}

// refState is one state of the reference state graph: its code, its
// label and its arcs with the transitions they fire.
type refState struct {
	code  ts.Code
	label string
	arcs  []ts.Arc
	trans []int
}

// refBuildSG is the reference of reach.BuildSGTrans under a budget of
// maxStates states.
func refBuildSG(g *stg.STG, maxStates int) ([]refState, error) {
	for _, l := range g.Labels {
		if l.Sig >= 0 && l.Dir == stg.Toggle {
			return refBuildSGToggle(g, maxStates)
		}
	}
	rg, err := refExplore(g.Net, true, maxStates)
	if err != nil {
		return nil, err
	}
	delta := make([]ts.Code, len(rg.markings))
	seen := make([]bool, len(rg.markings))
	seen[0] = true
	var initKnown, initVal ts.Code
	queue := []int{0}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, step := range rg.out[s] {
			l := g.Labels[step.Transition]
			next := delta[s]
			if l.Sig >= 0 {
				next = next.Flip(l.Sig)
				want := delta[s].Bit(l.Sig) != (l.Dir == stg.Fall)
				if initKnown.Bit(l.Sig) {
					if initVal.Bit(l.Sig) != want {
						return nil, fmt.Errorf(
							"reach: STG %s is not consistent: signal %s needs contradictory initial values (witness transition %s at %s)",
							g.Name(), g.Signals[l.Sig].Name, g.Net.Transitions[step.Transition].Name,
							rg.markings[s].Format(g.Net))
					}
				} else {
					initKnown = initKnown.Set(l.Sig, true)
					initVal = initVal.Set(l.Sig, want)
				}
			}
			if seen[step.To] {
				if delta[step.To] != next {
					return nil, fmt.Errorf("reach: STG %s is not consistent: marking %s reachable with different signal codes",
						g.Name(), rg.markings[step.To].Format(g.Net))
				}
				continue
			}
			seen[step.To] = true
			delta[step.To] = next
			queue = append(queue, step.To)
		}
	}
	states := make([]refState, len(rg.markings))
	for s, m := range rg.markings {
		states[s] = refState{code: initVal ^ delta[s], label: m.Format(g.Net)}
		for _, step := range rg.out[s] {
			l := g.Labels[step.Transition]
			ev := ts.Event{Sig: l.Sig, Dir: l.Dir, Name: g.Net.Transitions[step.Transition].Name}
			states[s].arcs = append(states[s].arcs, ts.Arc{Event: ev, To: step.To})
			states[s].trans = append(states[s].trans, step.Transition)
		}
	}
	return states, nil
}

// refBuildSGToggle explores (marking, code) pairs from the all-zero code.
func refBuildSGToggle(g *stg.STG, maxStates int) ([]refState, error) {
	type node struct {
		m    petri.Marking
		code ts.Code
	}
	key := func(n node) string { return fmt.Sprintf("%x|%d", []byte(n.m), n.code) }
	init := node{m: g.Net.InitialMarking()}
	if !init.m.Safe() {
		return nil, fmt.Errorf("%w: initial marking", reach.ErrUnsafe)
	}
	nodes := []node{init}
	index := map[string]int{key(init): 0}
	var states []refState
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		states = append(states, refState{code: cur.code, label: cur.m.Format(g.Net)})
		for t := range g.Net.Transitions {
			if !g.Net.Enabled(cur.m, t) {
				continue
			}
			l := g.Labels[t]
			next := node{code: cur.code}
			ev := ts.Event{Sig: l.Sig, Dir: l.Dir, Name: g.Net.Transitions[t].Name}
			if l.Sig >= 0 {
				bit := cur.code.Bit(l.Sig)
				switch {
				case l.Dir == stg.Rise && bit:
					return nil, fmt.Errorf("reach: STG %s inconsistent: %s fires at value 1", g.Name(), ev.Name)
				case l.Dir == stg.Fall && !bit:
					return nil, fmt.Errorf("reach: STG %s inconsistent: %s fires at value 0", g.Name(), ev.Name)
				case l.Dir == stg.Toggle:
					ev.Dir = stg.Rise
					if bit {
						ev.Dir = stg.Fall
					}
					ev.Name = g.Signals[l.Sig].Name + ev.Dir.String()
				}
				next.code = cur.code.Flip(l.Sig)
			}
			next.m = g.Net.Fire(cur.m, t)
			if !next.m.Safe() {
				return nil, fmt.Errorf("%w: firing %s", reach.ErrUnsafe, g.Net.Transitions[t].Name)
			}
			to, ok := index[key(next)]
			if !ok {
				if len(nodes) >= maxStates {
					return nil, budget.LimitStates(maxStates, len(nodes))
				}
				to = len(nodes)
				index[key(next)] = to
				nodes = append(nodes, next)
			}
			states[head].arcs = append(states[head].arcs, ts.Arc{Event: ev, To: to})
			states[head].trans = append(states[head].trans, t)
		}
	}
	return states, nil
}

// referenceSpecs returns the differential's specifications by name.
func referenceSpecs(t *testing.T) ([]string, map[string]*stg.STG) {
	t.Helper()
	specs := map[string]*stg.STG{}
	var names []string
	add := func(name string, g *stg.STG) {
		names = append(names, name)
		specs[name] = g
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(filepath.Base(path), g)
	}
	add("vme-read", vme.ReadSTG())
	add("vme-read-write", vme.ReadWriteSTG())
	for n := 4; n <= 6; n++ {
		add(fmt.Sprintf("muller-%d", n), gen.MullerPipeline(n))
	}
	for k := 2; k <= 4; k++ {
		add(fmt.Sprintf("cscring-%d", k), gen.CSCRing(k))
	}
	for _, n := range []int{1, 2, 3, 6, 64} {
		add(fmt.Sprintf("togglering-%d", n), toggleRing(n))
	}
	add("johnson-35", gen.JohnsonRing(35))
	add("tag-collision", tagCollision())
	// Specs that are not safe, for the error texts: an initial marking
	// with two tokens, a ring whose two tokens catch up, a toggle ring
	// likewise, and a+ adding a token to q on every firing.
	twice := vme.ReadSTG()
	twice.Net.Places[0].Initial = 2
	add("vme-read/two-tokens", twice)
	ring := gen.JohnsonRing(4)
	ring.Net.Places[3].Initial = 1
	add("johnson-4/two-tokens", ring)
	tr := toggleRing(3)
	tr.Net.Places[0].Initial = 1
	add("togglering-3/two-tokens", tr)
	wrap := stg.New("wrap")
	wrap.Net = wrappingNet()
	a := wrap.AddSignal("a", stg.Input)
	wrap.Labels = []stg.Label{{Sig: a, Dir: stg.Rise}, {Sig: a, Dir: stg.Fall}}
	add("wrap", wrap)
	// vme-read-write's first-round insertion candidates: every pair of
	// distinct points before or after a transition. Many are unsafe or
	// inconsistent, which exercises the error texts.
	rw := vme.ReadWriteSTG()
	var points []encoding.Point
	for tr := range rw.Net.Transitions {
		points = append(points, encoding.Point{Before: true, Trans: tr}, encoding.Point{Trans: tr})
	}
	for i, r := range points {
		for j, f := range points {
			if i == j {
				continue
			}
			cand, err := encoding.InsertSignalAt(rw, "csc0", r, f)
			if err != nil {
				continue
			}
			add(fmt.Sprintf("vme-read-write/%d-%d", i, j), cand)
		}
	}
	return names, specs
}

// tagCollision builds a 64-place STG whose a+ and b+ each empty p0 into a
// different set of places. The two markings they reach, as one-word keys
// 0x7e2383159cd7e24e and 0x7a75cd2538a9e462, hash to values that agree on
// the index's slot tag (the high 32 bits) and on their home slot in a
// 64-slot table: only the index's key comparison keeps them apart.
func tagCollision() *stg.STG {
	g := stg.New("tag-collision")
	g.Net.AddPlace("p0", 1)
	for p := 1; p < 64; p++ {
		g.Net.AddPlace(fmt.Sprintf("p%d", p), 0)
	}
	for i, key := range []uint64{0x7e2383159cd7e24e, 0x7a75cd2538a9e462} {
		t := g.AddTransition(g.AddSignal(string(rune('a'+i)), stg.Output), stg.Rise)
		g.Net.ArcPT(0, t)
		for p := 0; p < 64; p++ {
			if key>>p&1 != 0 {
				g.Net.ArcTP(t, p)
			}
		}
	}
	return g
}

// toggleRing builds a single-signal STG of n toggle transitions in a ring.
func toggleRing(n int) *stg.STG {
	g := stg.New(fmt.Sprintf("togglering-%d", n))
	g.AddSignal("x", stg.Output)
	tr := make([]int, n)
	for i := range tr {
		tr[i] = g.AddTransition(0, stg.Toggle)
	}
	for i := 0; i < n-1; i++ {
		g.Net.Implicit(tr[i], tr[i+1], 0)
	}
	g.Net.Implicit(tr[n-1], tr[0], 1)
	return g
}

// TestBuildSGMatchesReference compares BuildSGTrans with the reference on
// every specification, with no state cap and with caps of 1, 7 and 17.
func TestBuildSGMatchesReference(t *testing.T) {
	names, specs := referenceSpecs(t)
	var compared, failed, tripped, unsafe int
	for _, name := range names {
		g := specs[name]
		for _, maxStates := range []int{0, 1, 7, 17} {
			refCap := maxStates
			if refCap == 0 {
				refCap = reach.DefaultMaxStates
			}
			want, wantErr := refBuildSG(g, refCap)
			sg, trans, err := reach.BuildSGTrans(g, reach.Options{Budget: &budget.Budget{MaxStates: maxStates}})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s cap %d: error %v, reference %v", name, maxStates, err, wantErr)
			}
			compared++
			if err != nil {
				failed++
				if errors.Is(err, reach.ErrStateLimit) {
					tripped++
				}
				if errors.Is(err, reach.ErrUnsafe) {
					unsafe++
				}
				continue
			}
			if sg.NumStates() != len(want) || sg.Initial != 0 {
				t.Fatalf("%s cap %d: %d states, reference %d", name, maxStates, sg.NumStates(), len(want))
			}
			for s, w := range want {
				if sg.States[s].Code != w.code || sg.Label(s) != w.label ||
					!reflect.DeepEqual(sg.Out[s], w.arcs) || !reflect.DeepEqual(trans[s], w.trans) {
					t.Fatalf("%s cap %d: state %d is %v %s %v %v, reference %v %s %v %v", name, maxStates, s,
						sg.States[s].Code, sg.Label(s), sg.Out[s], trans[s], w.code, w.label, w.arcs, w.trans)
				}
			}
		}
	}
	if tripped == 0 || unsafe == 0 || failed == tripped+unsafe {
		t.Fatalf("the specifications exercise too little: %d failures, %d state-limit trips, %d unsafe",
			failed, tripped, unsafe)
	}
	t.Logf("%d specifications, %d comparisons, %d errors, %d state-limit trips, %d unsafe",
		len(names), compared, failed, tripped, unsafe)
}

// TestExploreMatchesReference is the twin for Explore on byte markings:
// nets that are not safe, one whose token counts would pass 255, and a spec
// sample, with and without state caps.
func TestExploreMatchesReference(t *testing.T) {
	nets := []*petri.Net{
		gen.MarkedGraphRing(9, 4),
		gen.MarkedGraphRing(5, 5),
		wrappingNet(),
		gen.Philosophers(3),
		gen.MullerPipeline(4).Net,
		gen.JohnsonRing(35).Net,
	}
	for _, n := range nets {
		for _, maxStates := range []int{0, 1, 7, 17} {
			refCap := maxStates
			if refCap == 0 {
				refCap = reach.DefaultMaxStates
			}
			want, wantErr := refExplore(n, false, refCap)
			got, err := reach.Explore(n, reach.Options{Budget: &budget.Budget{MaxStates: maxStates}})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s cap %d: error %v, reference %v", n.Name, maxStates, err, wantErr)
			}
			if want == nil || got == nil {
				if (want == nil) != (got == nil) {
					t.Fatalf("%s cap %d: graph %v, reference %v", n.Name, maxStates, got != nil, want != nil)
				}
				continue
			}
			if !reflect.DeepEqual(got.Markings, want.markings) {
				t.Fatalf("%s cap %d: markings differ", n.Name, maxStates)
			}
			for s := range want.markings {
				var wantOut []reach.Step
				if s < len(want.out) {
					wantOut = want.out[s]
				}
				if !reflect.DeepEqual(got.Out[s], wantOut) {
					t.Fatalf("%s cap %d: state %d steps %v, reference %v", n.Name, maxStates, s, got.Out[s], wantOut)
				}
			}
		}
	}
}

// wrappingNet is the net of STG a+ a- where a+ returns p's token and adds
// one to q, and a- returns it and adds one to r: q and r grow without
// bound.
func wrappingNet() *petri.Net {
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
	return n
}

// TestExploreTokenOverflow pins that byte markings fail on the first
// firing that would put a 256th token in a place instead of wrapping it to
// zero.
func TestExploreTokenOverflow(t *testing.T) {
	_, err := reach.Explore(wrappingNet(), reach.Options{})
	if !errors.Is(err, petri.ErrTokenOverflow) {
		t.Fatalf("got %v, want petri.ErrTokenOverflow", err)
	}
	if want := "petri: token count exceeds 255: firing a+ puts a 256th token in q"; err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}
