package reach

import (
	"encoding/binary"
	"fmt"

	"repro/internal/budget"
	"repro/internal/petri"
	"repro/internal/stg"
	"repro/internal/ts"
)

// BuildSG generates the state graph of an STG: the reachability graph with
// every state labeled by a binary code of signal values (Figure 4). It
// establishes the consistency property of Section 2.1 — rising and falling
// transitions of each signal alternate on every path — and infers the
// initial code, failing with a descriptive error when the STG is
// inconsistent.
//
// Dummy transitions are allowed: they change the marking but not the code.
// Toggle transitions are rejected (normalize the spec first).
//
// Options.Arena runs the exploration and the labeling scratch on reusable
// memory — the returned SG owns its own storage either way. The toggle path
// ignores it.
func BuildSG(g *stg.STG, opts Options) (*ts.SG, error) {
	if len(g.Signals) > 64 {
		return nil, fmt.Errorf("reach: %d signals exceed the 64-signal code limit", len(g.Signals))
	}
	for _, l := range g.Labels {
		if l.Sig >= 0 && l.Dir == stg.Toggle {
			// Toggle transitions make the code path-dependent: states are
			// (marking, code) pairs and every toggle arc is normalized to a
			// concrete rising or falling edge per state.
			return buildSGToggle(g, opts)
		}
	}
	rg, err := Explore(g.Net, firstSafe(opts))
	if err != nil {
		return nil, err
	}

	// Phase 1: relative codes. delta[s] is the XOR distance of state s's
	// code from the (unknown) initial code; fixed/value constrain initial
	// bits: firing a+ from s requires code(s).a == 0, i.e.
	// initial.a == delta[s].a; firing a- requires initial.a != delta[s].a.
	var (
		delta []ts.Code
		seen  []bool
		queue []int
	)
	if a := opts.Arena; a != nil {
		delta, seen, queue = a.sgScratch(rg.NumStates())
	} else {
		delta = make([]ts.Code, rg.NumStates())
		seen = make([]bool, rg.NumStates())
	}
	seen[0] = true
	var initKnown, initVal ts.Code
	queue = append(queue, 0)
	hooked := opts.Budget.Hooked()
	for head := 0; head < len(queue); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			if err := opts.Budget.Check("reach.label"); err != nil {
				return nil, err
			}
		}
		s := queue[head]
		for _, step := range rg.Out[s] {
			l := g.Labels[step.Transition]
			next := delta[s]
			if l.Sig >= 0 {
				next = next.Flip(l.Sig)
				// Polarity constraint on the initial code.
				want := delta[s].Bit(l.Sig) // initial bit for a Rise
				if l.Dir == stg.Fall {
					want = !want
				}
				bit := uint(l.Sig)
				if initKnown&(1<<bit) != 0 {
					if initVal.Bit(l.Sig) != want {
						return nil, fmt.Errorf(
							"reach: STG %s is not consistent: signal %s needs contradictory initial values (witness transition %s at %s)",
							g.Name(), g.Signals[l.Sig].Name,
							g.Net.Transitions[step.Transition].Name,
							rg.Markings[s].Format(g.Net))
					}
				} else {
					initKnown |= 1 << bit
					initVal = initVal.Set(l.Sig, want)
				}
			}
			if seen[step.To] {
				if delta[step.To] != next {
					return nil, fmt.Errorf(
						"reach: STG %s is not consistent: marking %s reachable with different signal codes",
						g.Name(), rg.Markings[step.To].Format(g.Net))
				}
				continue
			}
			seen[step.To] = true
			delta[step.To] = next
			queue = append(queue, step.To)
		}
	}
	if a := opts.Arena; a != nil {
		a.putQueue(queue)
	}

	// Phase 2: assemble the SG. Signals that never switch keep initial 0.
	sg := &ts.SG{
		Name:    g.Name(),
		Signals: append([]stg.Signal(nil), g.Signals...),
		Initial: 0,
	}
	sg.States = make([]ts.State, rg.NumStates())
	sg.Out = make([][]ts.Arc, rg.NumStates())
	for s := range rg.Markings {
		sg.States[s] = ts.State{
			Code:  initVal ^ delta[s],
			Key:   rg.Markings[s].Key(),
			Label: rg.Markings[s].Format(g.Net),
		}
		for _, step := range rg.Out[s] {
			l := g.Labels[step.Transition]
			ev := ts.Event{Sig: l.Sig, Dir: l.Dir, Name: g.Net.Transitions[step.Transition].Name}
			sg.Out[s] = append(sg.Out[s], ts.Arc{Event: ev, To: step.To})
		}
	}
	return sg, nil
}

func firstSafe(o Options) Options {
	o.RequireSafe = true
	return o
}

// buildSGToggle explores (marking, code) pairs directly: toggle transitions
// flip their signal's bit, rising/falling transitions additionally assert
// the expected previous value (consistency). All signals start at 0; arcs
// are labeled with the concrete edge taken.
func buildSGToggle(g *stg.STG, opts Options) (*ts.SG, error) {
	type node struct {
		m    petri.Marking
		code ts.Code
	}

	sg := &ts.SG{
		Name:    g.Name(),
		Signals: append([]stg.Signal(nil), g.Signals...),
	}
	index := map[string]int{}
	var nodes []node
	maxStates := opts.maxStates()
	// add returns (index, false) when inserting would exceed MaxStates, so
	// the abort is exact: the limit fires with exactly maxStates states
	// explored.
	add := func(n node) (int, bool) {
		k := toggleKey(n.m, n.code)
		if i, ok := index[k]; ok {
			return i, true
		}
		if len(nodes) >= maxStates {
			return 0, false
		}
		i := len(nodes)
		index[k] = i
		nodes = append(nodes, n)
		sg.States = append(sg.States, ts.State{
			Code:  n.code,
			Key:   k,
			Label: n.m.Format(g.Net),
		})
		sg.Out = append(sg.Out, nil)
		return i, true
	}
	init := node{m: g.Net.InitialMarking(), code: 0}
	if !init.m.Safe() {
		return nil, fmt.Errorf("%w: initial marking", ErrUnsafe)
	}
	if _, ok := add(init); !ok {
		return nil, budget.LimitStates(maxStates, len(nodes))
	}
	hooked := opts.Budget.Hooked()
	for head := 0; head < len(nodes); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			if err := opts.Budget.Check("reach.toggle"); err != nil {
				return nil, err
			}
		}
		cur := nodes[head]
		for t := range g.Net.Transitions {
			if !g.Net.Enabled(cur.m, t) {
				continue
			}
			l := g.Labels[t]
			nextCode := cur.code
			ev := ts.Event{Sig: l.Sig, Dir: l.Dir, Name: g.Net.Transitions[t].Name}
			if l.Sig >= 0 {
				bit := cur.code.Bit(l.Sig)
				switch l.Dir {
				case stg.Rise:
					if bit {
						return nil, fmt.Errorf("reach: STG %s inconsistent: %s fires at value 1",
							g.Name(), g.Net.Transitions[t].Name)
					}
				case stg.Fall:
					if !bit {
						return nil, fmt.Errorf("reach: STG %s inconsistent: %s fires at value 0",
							g.Name(), g.Net.Transitions[t].Name)
					}
				case stg.Toggle:
					// Normalize the arc label to the edge actually taken.
					ev.Dir = stg.Rise
					if bit {
						ev.Dir = stg.Fall
					}
					ev.Name = g.Signals[l.Sig].Name + ev.Dir.String()
				}
				nextCode = cur.code.Flip(l.Sig)
			}
			nm := g.Net.Fire(cur.m, t)
			if !nm.Safe() {
				return nil, fmt.Errorf("%w: firing %s", ErrUnsafe, g.Net.Transitions[t].Name)
			}
			to, ok := add(node{m: nm, code: nextCode})
			if !ok {
				return nil, budget.LimitStates(maxStates, len(nodes))
			}
			sg.Out[head] = append(sg.Out[head], ts.Arc{Event: ev, To: to})
		}
	}
	return sg, nil
}

// toggleKey composes the visited key of a (marking, code) node in a single
// buffer — one short-lived buffer plus the string, instead of the
// string-concatenation + fmt.Sprint chain it replaces on this hot path.
func toggleKey(m petri.Marking, code ts.Code) string {
	b := make([]byte, len(m)+8)
	copy(b, m)
	binary.BigEndian.PutUint64(b[len(m):], uint64(code))
	return string(b)
}
