// Package timing implements the timing extensions and timing-driven
// optimization of Sections 1.6 and 5:
//
//   - relative timing constraints sep(a,b) < 0 ("a always fires before b"),
//     used to prune the state graph before synthesis — timing-based
//     concurrency reduction that adds no logical dependencies;
//   - early enabling (lazy transitions): re-triggering an event from an
//     earlier cause, valid when a separation constraint guarantees the
//     original trigger still wins the race;
//   - time separation of events (TSE) for marked graphs with min/max delay
//     intervals, computed exactly on a finite unrolling (the Hulgaard et al.
//     problem of reference [12]);
//   - min/max cycle time of a marked graph (performance analysis).
package timing

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
)

// PruneSG applies relative timing constraints to a state graph: in any state
// where both the Earlier and the Later event of a constraint are enabled,
// the Later arc is removed (physical design guarantees Earlier wins). States
// made unreachable are dropped and the graph is renumbered. The result has a
// subset of the original behaviour and typically many more don't-care codes
// (Section 5, first bullet).
func PruneSG(g *ts.SG, cons []sim.RelativeOrder) *ts.SG {
	keepArc := func(s int, a ts.Arc) bool {
		for _, c := range cons {
			if a.Event.Sig < 0 {
				continue
			}
			if g.Signals[a.Event.Sig].Name != c.Later.Signal || a.Event.Dir != c.Later.Dir {
				continue
			}
			// Is Earlier enabled in s?
			for _, e := range g.Out[s] {
				if e.Event.Sig >= 0 && g.Signals[e.Event.Sig].Name == c.Earlier.Signal &&
					e.Event.Dir == c.Earlier.Dir {
					return false
				}
			}
		}
		return true
	}
	// BFS from initial over kept arcs.
	remap := make([]int, len(g.States))
	for i := range remap {
		remap[i] = -1
	}
	out := &ts.SG{Name: g.Name + "+rt", Signals: append([]stg.Signal(nil), g.Signals...),
		FormatKey: g.FormatKey}
	queue := []int{g.Initial}
	remap[g.Initial] = 0
	out.States = append(out.States, g.States[g.Initial])
	out.Out = append(out.Out, nil)
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, a := range g.Out[s] {
			if !keepArc(s, a) {
				continue
			}
			if remap[a.To] < 0 {
				remap[a.To] = len(out.States)
				out.States = append(out.States, g.States[a.To])
				out.Out = append(out.Out, nil)
				queue = append(queue, a.To)
			}
			out.Out[remap[s]] = append(out.Out[remap[s]], ts.Arc{Event: a.Event, To: remap[a.To]})
		}
	}
	out.Initial = 0
	return out
}

// Retrigger rewires the STG so that transition target is caused by
// newTrigger instead of oldTrigger (the "start enabling LDS- right after
// DSr- instead of D-" transformation of Section 5). It replaces the implicit
// place oldTrigger→target with newTrigger→target and returns the separation
// constraint that physical design must then guarantee:
// sep(oldTrigger, target) < 0.
func Retrigger(g *stg.STG, target, oldTrigger, newTrigger string) (*stg.STG, sim.RelativeOrder, error) {
	var zero sim.RelativeOrder
	tt := g.Net.TransitionIndex(target)
	ot := g.Net.TransitionIndex(oldTrigger)
	nt := g.Net.TransitionIndex(newTrigger)
	if tt < 0 || ot < 0 || nt < 0 {
		return nil, zero, fmt.Errorf("timing: unknown transition among %q, %q, %q", target, oldTrigger, newTrigger)
	}
	c := g.Clone()
	net := c.Net
	found := -1
	for _, p := range net.Transitions[tt].Pre {
		pl := net.Places[p]
		if len(pl.Pre) == 1 && pl.Pre[0] == ot && len(pl.Post) == 1 {
			found = p
			break
		}
	}
	if found < 0 {
		return nil, zero, fmt.Errorf("timing: no implicit place %s -> %s to retrigger", oldTrigger, target)
	}
	// Re-source the place at newTrigger.
	pl := &net.Places[found]
	for i, t := range net.Transitions[ot].Post {
		if t == found {
			net.Transitions[ot].Post = append(net.Transitions[ot].Post[:i], net.Transitions[ot].Post[i+1:]...)
			break
		}
	}
	pl.Pre = []int{nt}
	net.Transitions[nt].Post = append(net.Transitions[nt].Post, found)
	if err := c.Validate(); err != nil {
		return nil, zero, err
	}
	cons := sim.RelativeOrder{
		Earlier: eventRefOf(g, ot),
		Later:   eventRefOf(g, tt),
	}
	return c, cons, nil
}

func eventRefOf(g *stg.STG, t int) sim.EventRef {
	l := g.Labels[t]
	return sim.EventRef{Signal: g.Signals[l.Sig].Name, Dir: l.Dir}
}

// Delay is a min/max delay interval attached to a transition: the time from
// enabling to firing.
type Delay struct {
	Min, Max int64
}

// Fixed returns a zero-width interval.
func Fixed(d int64) Delay { return Delay{Min: d, Max: d} }

// Spec couples a marked-graph STG with per-transition delay intervals.
type Spec struct {
	G      *stg.STG
	Delays []Delay // indexed by transition
}

// Validate checks the spec is a marked graph with sane intervals.
func (s Spec) Validate() error {
	if !s.G.Net.IsMarkedGraph() {
		return fmt.Errorf("timing: TSE analysis requires a marked graph")
	}
	if len(s.Delays) != len(s.G.Net.Transitions) {
		return fmt.Errorf("timing: %d delays for %d transitions", len(s.Delays), len(s.G.Net.Transitions))
	}
	for i, d := range s.Delays {
		if d.Min < 0 || d.Max < d.Min {
			return fmt.Errorf("timing: bad delay interval for %s", s.G.Net.Transitions[i].Name)
		}
	}
	return nil
}

// Occurrence identifies the k-th firing of a transition in the unrolling.
type Occurrence struct {
	Transition int
	Cycle      int
}

// MaxSeparation computes the exact maximum of t(from) - t(to) over all delay
// assignments within the intervals, on an unrolling of `cycles` iterations.
// The timing semantics is the standard max-plus one: an instance fires at
// (max over its predecessor instances' firing times) + its own delay;
// instances whose predecessors fall before the unrolling window start at
// time 0 + delay.
//
// The computation is exact: delays only on paths to `from` are set to Max,
// delays only on paths to `to` are set to Min, and the delays shared by both
// cones are enumerated exhaustively. It fails when more than maxShared
// (default 22) shared variables would need enumeration.
func MaxSeparation(s Spec, from, to Occurrence, cycles int, maxShared int) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if maxShared <= 0 {
		maxShared = 22
	}
	u := unroll(s, cycles)
	fi, ok := u.index(from)
	if !ok {
		return 0, fmt.Errorf("timing: occurrence %v outside unrolling", from)
	}
	ti, ok := u.index(to)
	if !ok {
		return 0, fmt.Errorf("timing: occurrence %v outside unrolling", to)
	}
	ancF := u.ancestors(fi)
	ancT := u.ancestors(ti)

	delays := make([]int64, len(u.nodes))
	var shared []int
	for v := range u.nodes {
		inF, inT := ancF[v], ancT[v]
		d := s.Delays[u.nodes[v].Transition]
		switch {
		case inF && inT && d.Min != d.Max:
			shared = append(shared, v)
			delays[v] = d.Min
		case inF:
			delays[v] = d.Max
		default:
			delays[v] = d.Min
		}
	}
	if len(shared) > maxShared {
		return 0, fmt.Errorf("timing: %d shared delay variables exceed enumeration limit %d",
			len(shared), maxShared)
	}
	best := int64(math.MinInt64)
	for combo := uint64(0); combo < uint64(1)<<uint(len(shared)); combo++ {
		for bi, v := range shared {
			d := s.Delays[u.nodes[v].Transition]
			if combo&(1<<uint(bi)) != 0 {
				delays[v] = d.Max
			} else {
				delays[v] = d.Min
			}
		}
		times := u.evaluate(delays)
		if sep := times[fi] - times[ti]; sep > best {
			best = sep
		}
	}
	return best, nil
}

// SeparationUpperBound computes a sound but loose bound on the maximum of
// t(from) - t(to): the latest possible `from` (all delays at Max) minus the
// earliest possible `to` (all delays at Min). Unlike MaxSeparation it never
// enumerates shared delays, so it works at any scale — use it when the exact
// engine reports too many shared variables, accepting that correlated
// common-prefix delays no longer cancel.
func SeparationUpperBound(s Spec, from, to Occurrence, cycles int) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	u := unroll(s, cycles)
	fi, ok := u.index(from)
	if !ok {
		return 0, fmt.Errorf("timing: occurrence %v outside unrolling", from)
	}
	ti, ok := u.index(to)
	if !ok {
		return 0, fmt.Errorf("timing: occurrence %v outside unrolling", to)
	}
	maxD := make([]int64, len(u.nodes))
	minD := make([]int64, len(u.nodes))
	for v := range u.nodes {
		d := s.Delays[u.nodes[v].Transition]
		maxD[v] = d.Max
		minD[v] = d.Min
	}
	late := u.evaluate(maxD)
	early := u.evaluate(minD)
	return late[fi] - early[ti], nil
}

// MinSeparation is min over delays of t(from) - t(to); by symmetry it equals
// -MaxSeparation(to, from).
func MinSeparation(s Spec, from, to Occurrence, cycles int, maxShared int) (int64, error) {
	v, err := MaxSeparation(s, to, from, cycles, maxShared)
	return -v, err
}

// unrolled is the acyclic occurrence graph of a marked graph.
type unrolled struct {
	spec  Spec
	nodes []Occurrence
	// preds[i] lists predecessor node indexes (empty-window preds omitted:
	// they contribute enabling time 0).
	preds  [][]int
	byOcc  map[Occurrence]int
	cycles int
}

func unroll(s Spec, cycles int) *unrolled {
	u := &unrolled{spec: s, byOcc: map[Occurrence]int{}, cycles: cycles}
	nT := len(s.G.Net.Transitions)
	for k := 0; k < cycles; k++ {
		for t := 0; t < nT; t++ {
			occ := Occurrence{Transition: t, Cycle: k}
			u.byOcc[occ] = len(u.nodes)
			u.nodes = append(u.nodes, occ)
			u.preds = append(u.preds, nil)
		}
	}
	for pi := range s.G.Net.Places {
		pl := s.G.Net.Places[pi]
		if len(pl.Pre) != 1 || len(pl.Post) != 1 {
			continue // Validate already rejects non-MG
		}
		src, dst := pl.Pre[0], pl.Post[0]
		m := pl.Initial
		for k := 0; k < cycles; k++ {
			if k-m < 0 {
				continue
			}
			di := u.byOcc[Occurrence{Transition: dst, Cycle: k}]
			si := u.byOcc[Occurrence{Transition: src, Cycle: k - m}]
			u.preds[di] = append(u.preds[di], si)
		}
	}
	return u
}

func (u *unrolled) index(o Occurrence) (int, bool) {
	i, ok := u.byOcc[o]
	return i, ok
}

// ancestors returns the closed ancestor set (including v itself).
func (u *unrolled) ancestors(v int) []bool {
	anc := make([]bool, len(u.nodes))
	var stack []int
	anc[v] = true
	stack = append(stack, v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range u.preds[x] {
			if !anc[p] {
				anc[p] = true
				stack = append(stack, p)
			}
		}
	}
	return anc
}

// evaluate computes firing times in topological (creation) order: nodes are
// created cycle-major so predecessors always precede successors except
// within a cycle; a relaxation loop handles intra-cycle chains.
func (u *unrolled) evaluate(delays []int64) []int64 {
	times := make([]int64, len(u.nodes))
	for i := range times {
		times[i] = -1
	}
	var eval func(v int) int64
	eval = func(v int) int64 {
		if times[v] >= 0 {
			return times[v]
		}
		times[v] = 0 // break would-be cycles defensively; MG unrolling is acyclic
		var enable int64
		for _, p := range u.preds[v] {
			if tp := eval(p); tp > enable {
				enable = tp
			}
		}
		times[v] = enable + delays[v]
		return times[v]
	}
	for v := range u.nodes {
		eval(v)
	}
	return times
}

// Latency computes the worst-case response time from a cause transition to
// an effect transition within the same cycle: the maximum over delays of
// t(effect) - t(cause), evaluated at a steady-state occurrence. It is the
// "separation between events … for determining latency" of Section 2.1.
func Latency(s Spec, cause, effect string, cycles int) (int64, error) {
	ct := s.G.Net.TransitionIndex(cause)
	et := s.G.Net.TransitionIndex(effect)
	if ct < 0 || et < 0 {
		return 0, fmt.Errorf("timing: unknown transition %q or %q", cause, effect)
	}
	if cycles < 3 {
		cycles = 3
	}
	k := cycles - 1
	return MaxSeparation(s,
		Occurrence{Transition: et, Cycle: k},
		Occurrence{Transition: ct, Cycle: k}, cycles, 0)
}

// CycleTime computes the asymptotic mean cycle time of the marked graph: the
// maximum over directed cycles of (sum of delays / sum of tokens), using
// binary search with Bellman–Ford feasibility. useMax selects Max or Min
// delays. The net must be strongly connected.
func CycleTime(s Spec, useMax bool) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if !s.G.Net.StronglyConnected() {
		return 0, fmt.Errorf("timing: cycle time needs a strongly connected marked graph")
	}
	type edge struct {
		from, to int
		d        int64
		tokens   int
	}
	var edges []edge
	var maxD int64 = 1
	for pi := range s.G.Net.Places {
		pl := s.G.Net.Places[pi]
		src, dst := pl.Pre[0], pl.Post[0]
		d := s.Delays[dst].Min
		if useMax {
			d = s.Delays[dst].Max
		}
		edges = append(edges, edge{from: src, to: dst, d: d, tokens: pl.Initial})
		if d > maxD {
			maxD = d
		}
	}
	n := len(s.G.Net.Transitions)
	// A cycle with zero tokens would mean deadlock; detect it (infinite cycle
	// time) via feasibility at a huge lambda.
	hasPositiveCycle := func(lambda float64) bool {
		dist := make([]float64, n)
		for iter := 0; iter < n; iter++ {
			changed := false
			for _, e := range edges {
				w := float64(e.d) - lambda*float64(e.tokens)
				if dist[e.from]+w > dist[e.to]+1e-12 {
					dist[e.to] = dist[e.from] + w
					changed = true
				}
			}
			if !changed {
				return false
			}
		}
		return true
	}
	hi := float64(maxD) * float64(n+1)
	if hasPositiveCycle(hi) {
		return math.Inf(1), nil
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if hasPositiveCycle(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
