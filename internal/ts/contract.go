package ts

import (
	"fmt"
	"sort"
)

// ContractDummies eliminates λ-arcs from a state graph by collapsing each
// dummy-connected group of states into one: specifications may use dummy
// events for structuring (Section 1), but logic synthesis needs a state
// graph whose arcs are all signal edges. Contraction is valid when every
// state of a group shares one binary code — guaranteed by construction,
// since dummy transitions do not change the code — and when no signal
// event's determinism is destroyed (checked; an error names the offending
// group).
//
// The contracted group inherits the union of the member states' outgoing
// signal arcs.
func ContractDummies(g *SG) (*SG, error) {
	if !g.HasDummy() {
		return g, nil
	}
	// Union-find over dummy arcs.
	parent := make([]int, len(g.States))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for s, arcs := range g.Out {
		for _, a := range arcs {
			if a.Event.Sig < 0 {
				union(s, a.To)
			}
		}
	}
	// Verify code uniformity per group.
	codeOf := map[int]Code{}
	for s := range g.States {
		r := find(s)
		if c, ok := codeOf[r]; ok {
			if c != g.States[s].Code {
				return nil, fmt.Errorf("ts: dummy group mixes codes %s and %s",
					c.String(len(g.Signals)), g.States[s].Code.String(len(g.Signals)))
			}
		} else {
			codeOf[r] = g.States[s].Code
		}
	}
	// Build the contracted SG.
	remap := map[int]int{}
	out := &SG{Name: g.Name + "-contracted", Signals: g.Signals, FormatKey: g.FormatKey}
	var roots []int
	for s := range g.States {
		if find(s) == s {
			roots = append(roots, s)
		}
	}
	sort.Ints(roots)
	for _, r := range roots {
		remap[r] = len(out.States)
		out.States = append(out.States, g.States[r])
		out.Out = append(out.Out, nil)
	}
	out.Initial = remap[find(g.Initial)]
	type arcKey struct {
		from int
		ev   Event
		to   int
	}
	seen := map[arcKey]bool{}
	for s, arcs := range g.Out {
		from := remap[find(s)]
		for _, a := range arcs {
			if a.Event.Sig < 0 {
				continue
			}
			to := remap[find(a.To)]
			k := arcKey{from: from, ev: Event{Sig: a.Event.Sig, Dir: a.Event.Dir}, to: to}
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Out[from] = append(out.Out[from], Arc{Event: a.Event, To: to})
		}
	}
	// Determinism check: one target per (state, signal edge).
	for s, arcs := range out.Out {
		byEv := map[[2]int]int{}
		for _, a := range arcs {
			k := [2]int{a.Event.Sig, int(a.Event.Dir)}
			if prev, ok := byEv[k]; ok && prev != a.To {
				return nil, fmt.Errorf("ts: contraction makes %s nondeterministic in state %d",
					a.Event.Name, s)
			}
			byEv[k] = a.To
		}
	}
	return out, nil
}
