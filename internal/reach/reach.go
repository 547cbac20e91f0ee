// Package reach implements explicit reachability analysis of Petri nets (the
// "token game" of Section 1.2) and the construction of state graphs from
// STGs, including the consistency check of Section 2.1 (rising and falling
// transitions of each signal must alternate on every path).
package reach

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
)

// Options bound an exploration.
type Options struct {
	// MaxStates aborts the exploration when it would exceed this many
	// states (0 = 1<<22 default). The cap is enforced at insertion time:
	// exactly MaxStates states are explored before ErrStateLimit fires.
	MaxStates int
	// Budget, when non-nil, adds cancellation and resource ceilings: the
	// context is polled (amortized, every budget.CheckEvery expansions) and
	// Budget.MaxStates tightens MaxStates. Aborts surface as the typed
	// budget errors (ErrStateLimit remains errors.Is-compatible).
	Budget *budget.Budget
	// RequireSafe makes the exploration fail on the first marking with more
	// than one token in a place. When false, markings up to 255 tokens per
	// place are explored (boundedness violations beyond that still fail).
	RequireSafe bool
	// Arena, when non-nil, runs the exploration on reusable scratch memory:
	// the returned Graph aliases the arena and stays valid only until the
	// arena's next use. nil explores on a fresh arena the Graph owns.
	Arena *Arena
	// Obs is the parent observability span (usually a phase of the synthesis
	// flow): the explorer records an "engine:explicit" child span and the
	// reach.* counters into its registry. nil — the default — disables
	// observability at zero cost on the hot paths.
	Obs *obs.Span
}

func (o Options) maxStates() int {
	cap := o.MaxStates
	if cap <= 0 {
		cap = 1 << 22
	}
	return o.Budget.StateLimit(cap)
}

// ErrUnsafe is returned when RequireSafe is set and a 2-token place is found.
var ErrUnsafe = fmt.Errorf("reach: net is not safe (1-bounded)")

// ErrStateLimit is the errors.Is anchor for state-limit aborts. It is an
// alias of budget.Sentinel(budget.States): the concrete errors returned are
// budget.ErrLimit values carrying the ceiling and usage, and they match this
// sentinel (and stubborn.ErrStateLimit) under errors.Is.
var ErrStateLimit = budget.Sentinel(budget.States)

// Graph is the reachability graph of a net: states are markings.
type Graph struct {
	Net      *petri.Net
	Markings []petri.Marking
	// Out[i] lists (transition, successor-state) pairs.
	Out [][]Step
	// Index maps marking keys to state indexes.
	Index map[string]int
}

// Step is one firing in the reachability graph.
type Step struct {
	Transition int
	To         int
}

// Explore computes the reachability graph of the net under the options: a
// breadth-first token game numbering states in discovery order, with each
// state's steps in ascending transition order.
//
// On a state-limit trip (errors.Is(err, ErrStateLimit)) the partial graph
// explored so far — exactly MaxStates states — is returned alongside the
// typed budget.ErrLimit error; on cancellation the partial graph explored
// so far is returned too.
func Explore(n *petri.Net, opts Options) (*Graph, error) {
	a := opts.Arena
	if a == nil {
		a = NewArena()
	}
	sp, start := openEngineSpan(opts.Obs)
	g, err := a.explore(n, opts)
	closeEngineSpan(sp, start, g, err)
	return g, err
}

// openEngineSpan opens the explorer's engine span under the parent phase
// span. The wall-clock start is sampled only when observability is on, so
// the disabled path stays a nil check.
func openEngineSpan(parent *obs.Span) (*obs.Span, time.Time) {
	sp := parent.Child("engine:explicit")
	if sp == nil {
		return nil, time.Time{}
	}
	return sp, time.Now()
}

// closeEngineSpan records the exploration totals (reach.states, reach.arcs,
// reach.states_per_sec) into the span's registry and ends the span. Partial
// graphs from budget trips still report their explored totals.
func closeEngineSpan(sp *obs.Span, start time.Time, g *Graph, err error) {
	if sp == nil {
		return
	}
	states, arcs := 0, 0
	if g != nil {
		states, arcs = g.NumStates(), g.NumArcs()
	}
	reg := sp.Registry()
	reg.Counter("reach.states").Add(int64(states))
	reg.Counter("reach.arcs").Add(int64(arcs))
	sp.Attr("states", strconv.Itoa(states))
	sp.Attr("arcs", strconv.Itoa(arcs))
	if err != nil {
		sp.Attr("error", err.Error())
	}
	if sec := time.Since(start).Seconds(); sec > 0 && states > 0 {
		reg.Gauge("reach.states_per_sec").Set(int64(float64(states) / sec))
	}
	sp.End()
}

// NumStates returns the number of reachable markings.
func (g *Graph) NumStates() int { return len(g.Markings) }

// NumArcs returns the number of firings (arcs).
func (g *Graph) NumArcs() int {
	n := 0
	for _, s := range g.Out {
		n += len(s)
	}
	return n
}

// Deadlocks returns the states with no enabled transitions.
func (g *Graph) Deadlocks() []int {
	var out []int
	for i, s := range g.Out {
		if len(s) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// IsSafe reports whether every reachable marking is 1-bounded. (Only
// meaningful when Explore ran without RequireSafe.)
func (g *Graph) IsSafe() bool {
	for _, m := range g.Markings {
		if !m.Safe() {
			return false
		}
	}
	return true
}

// LiveTransitions returns, for each transition, whether it fires on some arc
// of the reachability graph (L1-liveness from the initial marking).
func (g *Graph) LiveTransitions() []bool {
	live := make([]bool, len(g.Net.Transitions))
	for _, steps := range g.Out {
		for _, s := range steps {
			live[s.Transition] = true
		}
	}
	return live
}
