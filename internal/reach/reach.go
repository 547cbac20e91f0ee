// Package reach implements explicit reachability analysis of Petri nets (the
// "token game" of Section 1.2) and the construction of state graphs from
// STGs, including the consistency check of Section 2.1 (rising and falling
// transitions of each signal must alternate on every path).
package reach

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
)

// Options bound an exploration.
type Options struct {
	// Budget, when non-nil, adds cancellation and resource ceilings: the
	// context is polled (amortized, every budget.CheckEvery expansions) and
	// Budget.MaxStates tightens DefaultMaxStates. The cap is enforced at
	// insertion time: exactly that many states are explored before the
	// typed budget error fires (ErrStateLimit remains errors.Is-compatible).
	Budget *budget.Budget
	// Obs is the parent observability span (usually a phase of the synthesis
	// flow): the explorer records an "engine:explicit" child span and the
	// reach.* counters into its registry. nil — the default — disables
	// observability at zero cost on the hot paths.
	Obs *obs.Span
}

// DefaultMaxStates is the state cap of an exploration whose budget sets
// no tighter one.
const DefaultMaxStates = 1 << 22

func (o Options) maxStates() int { return o.Budget.StateLimit(DefaultMaxStates) }

// ErrUnsafe is returned by BuildSG when a marking puts a second token in a
// place.
var ErrUnsafe = fmt.Errorf("reach: net is not safe (1-bounded)")

// ErrInconsistent is the errors.Is anchor of BuildSG's consistency
// failures: a signal's rising and falling transitions do not alternate.
var ErrInconsistent = errors.New("reach: STG is not consistent")

// inconsistency is a consistency failure carrying its own witness message.
type inconsistency struct{ msg string }

func inconsistent(format string, args ...any) error {
	return &inconsistency{msg: fmt.Sprintf(format, args...)}
}

func (e *inconsistency) Error() string        { return e.msg }
func (e *inconsistency) Is(target error) bool { return target == ErrInconsistent }

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
}

// Step is one firing in the reachability graph.
type Step struct {
	Transition int
	To         int
}

// Explore computes the reachability graph of the net under the options: a
// breadth-first token game numbering states in discovery order, with each
// state's steps in ascending transition order. Markings hold up to 255
// tokens per place, and the first firing that would put a 256th token in a
// place fails with petri.ErrTokenOverflow.
//
// On a state-limit trip (errors.Is(err, ErrStateLimit)) the partial graph
// explored so far — exactly the cap's count of states — is returned
// alongside the typed budget.ErrLimit error; on cancellation the partial
// graph explored so far is returned too.
//
// A net whose transition lists a place twice fails with
// petri.ErrRepeatedArc.
func Explore(n *petri.Net, opts Options) (*Graph, error) {
	c, err := petri.NewByteCodec(n)
	if err != nil {
		return nil, err
	}
	e, err := run(n, c, false, opts)
	if e == nil {
		return nil, err
	}
	return e.graph(n, c), err
}

// run is explore inside the explorer's engine span: it records the
// exploration totals (reach.states, reach.arcs, reach.states_per_sec) into
// the span's registry. Partial graphs from budget trips still report their
// explored totals. The wall-clock start is sampled only when observability
// is on, so the disabled path stays a nil check.
func run(n *petri.Net, c *petri.Codec, safe bool, opts Options) (*explorer, error) {
	sp := opts.Obs.Child("engine:explicit")
	if sp == nil {
		return explore(n, c, safe, opts)
	}
	start := time.Now()
	e, err := explore(n, c, safe, opts)
	states, arcs := 0, 0
	if e != nil {
		states, arcs = e.index.Len(), len(e.steps)
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
	return e, err
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

// IsSafe reports whether every reachable marking is 1-bounded.
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
