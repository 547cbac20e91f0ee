package reach

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/petri"
	"repro/internal/ts"
)

// Arena is a reusable scratch workspace for repeated explorations of nets of
// similar size — the state-encoding candidate search rebuilds thousands of
// state graphs, and without reuse every rebuild pays for a fresh visited
// table, marking storage and adjacency slices. An Arena amortizes all of
// that: marking bytes are bump-allocated from recycled blocks, the visited
// index map and the per-state slices are cleared and reused in place.
//
// A Graph produced by an arena-backed exploration aliases the arena's
// memory: it is valid only until the next Explore/BuildSG call using the
// same Arena. Callers that keep the Graph must not reuse the Arena; callers
// that only distill the Graph (as BuildSG does) reuse it freely. An Arena is
// not safe for concurrent use — give each worker its own.
type Arena struct {
	index    map[string]int
	markings []petri.Marking
	out      [][]Step
	fire     petri.Marking

	blocks [][]byte
	cur    int // block being filled

	// BuildSG scratch (code labeling passes).
	delta []ts.Code
	seen  []bool
	queue []int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{index: make(map[string]int)}
}

// Marking blocks double from arenaMinBlock up to arenaMaxBlock, so a small
// net's one-off exploration stays small while a reused arena settles on
// large blocks.
const (
	arenaMinBlock = 1 << 9
	arenaMaxBlock = 1 << 16
)

// reset rewinds the arena for a fresh exploration of a net with np places.
func (a *Arena) reset(np int) {
	clear(a.index)
	a.markings = a.markings[:0]
	a.cur = 0
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	if cap(a.fire) < np {
		a.fire = make(petri.Marking, np)
	}
	a.fire = a.fire[:np]
}

// alloc copies m into arena-owned storage and returns the stable copy.
func (a *Arena) alloc(m petri.Marking) petri.Marking {
	for {
		if a.cur == len(a.blocks) {
			size := max(min(arenaMinBlock<<len(a.blocks), arenaMaxBlock), len(m))
			a.blocks = append(a.blocks, make([]byte, 0, size))
		}
		b := a.blocks[a.cur]
		if len(b)+len(m) <= cap(b) {
			off := len(b)
			a.blocks[a.cur] = b[: off+len(m) : cap(b)]
			v := b[off : off+len(m) : off+len(m)]
			copy(v, m)
			return petri.Marking(v)
		}
		a.cur++
	}
}

// outSlot returns a cleared reusable Step slice for state idx.
func (a *Arena) outSlot(idx int) []Step {
	if idx < len(a.out) {
		return a.out[idx][:0]
	}
	a.out = append(a.out, nil)
	return nil
}

// explore is the explorer behind Explore, running entirely on arena
// scratch with near-zero allocation churn: markings are bump-allocated, the
// visited map is reused, and enabledness candidates are fired into a single
// scratch buffer. Deadlock states and states left unexpanded by an abort
// get nil adjacency.
func (a *Arena) explore(n *petri.Net, opts Options) (*Graph, error) {
	a.reset(len(n.Places))
	g := &Graph{Net: n, Index: a.index}
	init := n.InitialMarking()
	if opts.RequireSafe && !init.Safe() {
		return nil, fmt.Errorf("%w: initial marking %s", ErrUnsafe, init.Format(n))
	}
	a.markings = append(a.markings, a.alloc(init))
	a.index[init.Key()] = 0
	maxStates := opts.maxStates()
	hooked := opts.Budget.Hooked()
	checks := opts.Obs.Registry().Counter("reach.budget_checks")
	for head := 0; head < len(a.markings); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			checks.Inc()
			if err := opts.Budget.Check("reach.explore"); err != nil {
				return a.finish(g, head-1), err
			}
		}
		m := a.markings[head]
		steps := a.outSlot(head)
		for t := range n.Transitions {
			if !n.Enabled(m, t) {
				continue
			}
			next := a.fire
			copy(next, m)
			n.FireInPlace(next, t)
			if opts.RequireSafe && !next.Safe() {
				return nil, fmt.Errorf("%w: firing %s from %s", ErrUnsafe,
					n.Transitions[t].Name, m.Format(n))
			}
			idx, ok := a.index[string(next)]
			if !ok {
				if len(a.markings) >= maxStates {
					a.out[head] = steps
					return a.finish(g, head), budget.LimitStates(maxStates, len(a.markings))
				}
				idx = len(a.markings)
				stable := a.alloc(next)
				a.markings = append(a.markings, stable)
				a.index[stable.Key()] = idx
			}
			steps = append(steps, Step{Transition: t, To: idx})
		}
		if len(steps) == 0 {
			steps = nil // as on a fresh arena: reuse leaves no trace in the graph
		}
		a.out[head] = steps
	}
	return a.finish(g, len(a.markings)-1), nil
}

// finish attaches the arena's state to g. States past lastExpanded (present
// only on partial graphs) get nil adjacency.
func (a *Arena) finish(g *Graph, lastExpanded int) *Graph {
	n := len(a.markings)
	for len(a.out) < n {
		a.out = append(a.out, nil)
	}
	for i := lastExpanded + 1; i < n; i++ {
		a.out[i] = nil
	}
	g.Markings = a.markings
	g.Out = a.out[:n]
	return g
}

// sgScratch returns reusable delta/seen buffers for n states plus an empty
// BFS queue. The caller hands the queue back via putQueue so a grown backing
// array survives to the next build.
func (a *Arena) sgScratch(n int) (delta []ts.Code, seen []bool, queue []int) {
	if cap(a.delta) < n {
		a.delta = make([]ts.Code, n)
		a.seen = make([]bool, n)
	}
	delta = a.delta[:n]
	seen = a.seen[:n]
	for i := range delta {
		delta[i] = 0
		seen[i] = false
	}
	return delta, seen, a.queue[:0]
}

func (a *Arena) putQueue(q []int) { a.queue = q[:0] }
