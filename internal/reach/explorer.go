package reach

import (
	"fmt"
	"slices"

	"repro/internal/budget"
	"repro/internal/petri"
	"repro/internal/stateindex"
)

// explorer holds one exploration: the visited index, which numbers the
// packed markings (on the toggle path, marking and code) in discovery order,
// and every state's steps. Each Explore and BuildSG call runs on its own,
// so every Graph and SG owns its storage.
type explorer struct {
	index stateindex.Index
	// State s's steps, in ascending transition order, are
	// steps[first[s]:first[s+1]] for every state s < len(first)-1; the
	// states past that were left unexpanded by an abort.
	first []int32
	steps []Step
	next  []uint64 // successor key scratch
}

// newExplorer returns an empty explorer for keys of width words, at most
// limit of them.
func newExplorer(width, limit int) *explorer {
	e := &explorer{next: make([]uint64, width)}
	e.index.Reset(width, limit)
	return e
}

// explore is the breadth-first token game behind Explore and BuildSG. It
// numbers n's markings, packed by c, in discovery order and records each
// state's steps in ascending transition order. BuildSG requires a safe net
// and passes a bit codec with safe set, so the first marking with a second
// token in a place fails with ErrUnsafe; Explore passes a byte codec. The
// loop is the same. It returns the explorer when it holds a graph: a
// complete one, or the partial one of a state-limit trip or cancellation
// (the error says which). A model error — an unsafe or overfull marking —
// returns none.
func explore(n *petri.Net, c *petri.Codec, safe bool, opts Options) (*explorer, error) {
	init := n.InitialMarking()
	if safe && !init.Safe() {
		return nil, fmt.Errorf("%w: initial marking %s", ErrUnsafe, init.Format(n))
	}
	maxStates := opts.maxStates()
	e := newExplorer(c.Words(), maxStates)
	c.Pack(e.next, init)
	e.index.Visit(e.next) // the limit is at least 1
	hooked := opts.Budget.Hooked()
	checks := opts.Obs.Registry().Counter("reach.budget_checks")
	for head := 0; head < e.index.Len(); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			checks.Inc()
			if err := opts.Budget.Check("reach.explore"); err != nil {
				e.first = append(e.first, int32(len(e.steps)))
				return e, err
			}
		}
		e.first = append(e.first, int32(len(e.steps)))
		if len(e.steps)+len(n.Transitions) > cap(e.steps) {
			// Room for this state's steps, doubling: append would grow a
			// large array by 1.25× and copy it about four times over.
			e.steps = slices.Grow(e.steps, cap(e.steps)+len(n.Transitions))
		}
		m := e.index.Key(int32(head))
		for t := range n.Transitions {
			if !c.Enabled(m, t) {
				continue
			}
			if p := c.Fire(e.next, m, t); p >= 0 {
				if safe {
					return nil, fmt.Errorf("%w: firing %s from %s", ErrUnsafe,
						n.Transitions[t].Name, c.Format(m))
				}
				return nil, c.OverflowError(t, p)
			}
			id, _ := e.index.Visit(e.next)
			if id < 0 {
				e.first = append(e.first, int32(len(e.steps)))
				return e, budget.LimitStates(maxStates, e.index.Len())
			}
			e.steps = append(e.steps, Step{Transition: t, To: int(id)})
		}
	}
	e.first = append(e.first, int32(len(e.steps)))
	return e, nil
}

// graph returns the exploration as a Graph with unpacked markings. Deadlock
// states and states left unexpanded by an abort get nil adjacency.
func (e *explorer) graph(n *petri.Net, c *petri.Codec) *Graph {
	states, np := e.index.Len(), len(n.Places)
	marks := make([]byte, states*np)
	g := &Graph{Net: n, Markings: make([]petri.Marking, states), Out: make([][]Step, states)}
	for s := range states {
		g.Markings[s] = c.Unpack(marks[s*np:(s+1)*np:(s+1)*np], e.index.Key(int32(s)))
		g.Out[s] = e.stepsOf(s)
	}
	return g
}

// stepsOf returns state s's steps, nil for a deadlock or unexpanded state.
func (e *explorer) stepsOf(s int) []Step {
	if s+1 >= len(e.first) || e.first[s] == e.first[s+1] {
		return nil
	}
	lo, hi := e.first[s], e.first[s+1]
	return e.steps[lo:hi:hi]
}
