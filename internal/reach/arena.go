package reach

import (
	"fmt"
	"slices"

	"repro/internal/budget"
	"repro/internal/petri"
	"repro/internal/stateindex"
	"repro/internal/ts"
)

// Arena is a reusable scratch workspace for repeated explorations of nets of
// similar size — the state-encoding candidate search rebuilds tens of state
// graphs a search, and without reuse every rebuild pays for a fresh visited
// index and step arrays. An Arena keeps them: the index and the flat step
// arrays are cleared and reused in place.
//
// A Graph produced by an arena-backed exploration aliases the arena's
// memory: it is valid only until the next Explore/BuildSG call using the
// same Arena. Callers that keep the Graph must not reuse the Arena; an SG
// from BuildSG owns its storage, so BuildSG callers reuse it freely. An
// Arena is not safe for concurrent use — give each worker its own.
type Arena struct {
	// index numbers the packed markings (the toggle path: marking and
	// code) in discovery order.
	index stateindex.Index
	// State s's steps, in ascending transition order, are
	// steps[first[s]:first[s+1]] for every state s < len(first)-1; the
	// states past that were left unexpanded by an abort.
	first []int32
	steps []Step
	next  []uint64 // successor key scratch

	// Explore's graph: unpacked markings and adjacency rows.
	marks    []byte
	markings []petri.Marking
	out      [][]Step

	// BuildSG scratch: each state's code relative to the initial one.
	delta []ts.Code
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// reset rewinds the arena for keys of width words, at most limit of them.
func (a *Arena) reset(width, limit int) {
	a.index.Reset(width, limit)
	a.first = a.first[:0]
	a.steps = a.steps[:0]
	if cap(a.next) < width {
		a.next = make([]uint64, width)
	}
	a.next = a.next[:width]
}

// explore is the breadth-first token game behind Explore and BuildSG. It
// numbers n's markings, packed by c, in discovery order and records each
// state's steps in ascending transition order. c is a bit codec under
// RequireSafe and a byte codec otherwise; the loop is the same. It reports
// whether the arena holds a graph: a complete one, or the partial one of a
// state-limit trip or cancellation (the error says which). A model error —
// an unsafe or overfull marking — leaves none.
func (a *Arena) explore(n *petri.Net, c *petri.Codec, opts Options) (bool, error) {
	maxStates := opts.maxStates()
	a.reset(c.Words(), maxStates)
	init := n.InitialMarking()
	if opts.RequireSafe && !init.Safe() {
		return false, fmt.Errorf("%w: initial marking %s", ErrUnsafe, init.Format(n))
	}
	c.Pack(a.next, init)
	a.index.Visit(a.next) // the limit is at least 1
	hooked := opts.Budget.Hooked()
	checks := opts.Obs.Registry().Counter("reach.budget_checks")
	for head := 0; head < a.index.Len(); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			checks.Inc()
			if err := opts.Budget.Check("reach.explore"); err != nil {
				a.first = append(a.first, int32(len(a.steps)))
				return true, err
			}
		}
		a.first = append(a.first, int32(len(a.steps)))
		if len(a.steps)+len(n.Transitions) > cap(a.steps) {
			// Room for this state's steps, doubling: append would grow a
			// large array by 1.25× and copy it about four times over.
			a.steps = slices.Grow(a.steps, cap(a.steps)+len(n.Transitions))
		}
		m := a.index.Key(int32(head))
		for t := range n.Transitions {
			if !c.Enabled(m, t) {
				continue
			}
			if p := c.Fire(a.next, m, t); p >= 0 {
				if opts.RequireSafe {
					return false, fmt.Errorf("%w: firing %s from %s", ErrUnsafe,
						n.Transitions[t].Name, c.Format(m))
				}
				return false, c.OverflowError(t, p)
			}
			id, _ := a.index.Visit(a.next)
			if id < 0 {
				a.first = append(a.first, int32(len(a.steps)))
				return true, budget.LimitStates(maxStates, a.index.Len())
			}
			a.steps = append(a.steps, Step{Transition: t, To: int(id)})
		}
	}
	a.first = append(a.first, int32(len(a.steps)))
	return true, nil
}

// graph returns the arena's exploration as a Graph with unpacked markings.
// Deadlock states and states left unexpanded by an abort get nil adjacency.
func (a *Arena) graph(n *petri.Net, c *petri.Codec) *Graph {
	states, np := a.index.Len(), len(n.Places)
	if cap(a.marks) < states*np {
		a.marks = make([]byte, states*np)
	}
	a.markings = a.markings[:0]
	a.out = a.out[:0]
	for s := range states {
		m := a.marks[s*np : (s+1)*np : (s+1)*np]
		a.markings = append(a.markings, c.Unpack(m, a.index.Key(int32(s))))
		a.out = append(a.out, a.stepsOf(s))
	}
	return &Graph{Net: n, Markings: a.markings, Out: a.out}
}

// stepsOf returns state s's steps, nil for a deadlock or unexpanded state.
func (a *Arena) stepsOf(s int) []Step {
	if s+1 >= len(a.first) || a.first[s] == a.first[s+1] {
		return nil
	}
	lo, hi := a.first[s], a.first[s+1]
	return a.steps[lo:hi:hi]
}

// sgScratch returns a cleared, reusable delta buffer for n states.
func (a *Arena) sgScratch(n int) []ts.Code {
	if cap(a.delta) < n {
		a.delta = make([]ts.Code, n)
	}
	delta := a.delta[:n]
	clear(delta)
	return delta
}
