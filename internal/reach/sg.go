package reach

import (
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
// A spec with a toggle transition is explored as (marking, code) pairs,
// every signal starting at 0, and each toggle arc is labelled with the edge
// it takes in its state (see HasToggle).
//
// Consistency failures match ErrInconsistent under errors.Is; a marking
// with a second token in a place fails with ErrUnsafe, and a net whose
// transition lists a place twice with petri.ErrRepeatedArc.
func BuildSG(g *stg.STG, opts Options) (*ts.SG, error) {
	sg, _, err := buildSG(g, opts, false)
	return sg, err
}

// BuildSGTrans is BuildSG that also returns, parallel to every state's Out,
// the index of the net transition each arc fires. Arc events cannot stand in
// for it: the toggle path renames them per state.
func BuildSGTrans(g *stg.STG, opts Options) (*ts.SG, [][]int, error) {
	return buildSG(g, opts, true)
}

// HasToggle reports whether g has a toggle transition. BuildSG then
// explores (marking, code) pairs, every signal starting at 0, instead of
// labeling the reachability graph of the net.
func HasToggle(g *stg.STG) bool {
	for _, l := range g.Labels {
		if l.Sig >= 0 && l.Dir == stg.Toggle {
			return true
		}
	}
	return false
}

func buildSG(g *stg.STG, opts Options, withTrans bool) (*ts.SG, [][]int, error) {
	if len(g.Signals) > 64 {
		return nil, nil, fmt.Errorf("reach: %d signals exceed the 64-signal code limit", len(g.Signals))
	}
	c, err := petri.NewBitCodec(g.Net)
	if err != nil {
		return nil, nil, err
	}
	if HasToggle(g) {
		// Toggle transitions make the code path-dependent: states are
		// (marking, code) pairs and every toggle arc is normalized to a
		// concrete rising or falling edge per state.
		return buildSGToggle(g, c, opts, withTrans)
	}
	e, err := run(g.Net, c, true, opts)
	if err != nil {
		return nil, nil, err
	}
	states := e.index.Len()

	// Phase 1: relative codes. delta[s] is the XOR distance of state s's
	// code from the (unknown) initial code; fixed/value constrain initial
	// bits: firing a+ from s requires code(s).a == 0, i.e.
	// initial.a == delta[s].a; firing a- requires initial.a != delta[s].a.
	// The exploration numbered states breadth-first, so walking them in id
	// order repeats its search: a step leads to a labelled state (id below
	// labelled), whose code it must agree with, or to the next one.
	delta := make([]ts.Code, states)
	var initKnown, initVal ts.Code
	labelled := 1
	hooked := opts.Budget.Hooked()
	for s := range states {
		if hooked || s%budget.CheckEvery == 0 {
			if err := opts.Budget.Check("reach.label"); err != nil {
				return nil, nil, err
			}
		}
		for _, step := range e.stepsOf(s) {
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
						return nil, nil, inconsistent(
							"reach: STG %s is not consistent: signal %s needs contradictory initial values (witness transition %s at %s)",
							g.Name(), g.Signals[l.Sig].Name,
							g.Net.Transitions[step.Transition].Name,
							c.Format(e.index.Key(int32(s))))
					}
				} else {
					initKnown |= 1 << bit
					initVal = initVal.Set(l.Sig, want)
				}
			}
			if step.To < labelled {
				if delta[step.To] != next {
					return nil, nil, inconsistent(
						"reach: STG %s is not consistent: marking %s reachable with different signal codes",
						g.Name(), c.Format(e.index.Key(int32(step.To))))
				}
				continue
			}
			delta[step.To] = next
			labelled++
		}
	}

	// Phase 2: assemble the SG. Signals that never switch keep initial 0.
	events := transitionEvents(g)
	arcs := make([]ts.Arc, len(e.steps))
	var fired []int
	if withTrans {
		fired = make([]int, len(e.steps))
	}
	for i, step := range e.steps {
		arcs[i] = ts.Arc{Event: events[step.Transition], To: step.To}
		if withTrans {
			fired[i] = step.Transition
		}
	}
	sg, trans := e.assemble(g, func(s int) ts.Code { return initVal ^ delta[s] }, arcs, fired, withTrans)
	return sg, trans, nil
}

// assemble returns the state graph of g over the explored states. State s
// has code(s), its index key as its Key, and the arcs
// arcs[first[s]:first[s+1]], fired by the transitions at the same places
// of fired when withTrans. Every state's key is a slice of one string of
// all the keys, and its arcs and transitions capped sub-slices of arcs and
// fired.
func (e *explorer) assemble(g *stg.STG, code func(s int) ts.Code, arcs []ts.Arc, fired []int, withTrans bool) (*ts.SG, [][]int) {
	states := e.index.Len()
	sg := &ts.SG{
		Name:    g.Name(),
		Signals: append([]stg.Signal(nil), g.Signals...),
		States:  make([]ts.State, states),
		Out:     make([][]ts.Arc, states),
		FormatKey: func(key string) string {
			return petri.FormatKey(key, g.Net)
		},
	}
	var trans [][]int
	if withTrans {
		trans = make([][]int, states)
	}
	keys, w := petri.KeyString(e.index.Keys()), 8*e.index.Width()
	for s := range states {
		sg.States[s] = ts.State{Code: code(s), Key: keys[s*w : (s+1)*w]}
		lo, hi := e.first[s], e.first[s+1]
		if lo == hi {
			continue
		}
		sg.Out[s] = arcs[lo:hi:hi]
		if withTrans {
			trans[s] = fired[lo:hi:hi]
		}
	}
	return sg, trans
}

// transitionEvents returns the arc event of every transition of g.
func transitionEvents(g *stg.STG) []ts.Event {
	events := make([]ts.Event, len(g.Labels))
	for t, l := range g.Labels {
		events[t] = ts.Event{Sig: l.Sig, Dir: l.Dir, Name: g.Net.Transitions[t].Name}
	}
	return events
}

// buildSGToggle explores (marking, code) pairs directly, keyed in the
// explorer's index as the packed marking followed by one code word: toggle
// transitions flip their signal's bit, rising/falling transitions
// additionally assert the expected previous value (consistency). All
// signals start at 0; arcs are labeled with the concrete edge taken.
func buildSGToggle(g *stg.STG, c *petri.Codec, opts Options, withTrans bool) (*ts.SG, [][]int, error) {
	w := c.Words()
	maxStates := opts.maxStates()
	e := newExplorer(w+1, maxStates)
	init := g.Net.InitialMarking()
	if !init.Safe() {
		return nil, nil, fmt.Errorf("%w: initial marking", ErrUnsafe)
	}
	c.Pack(e.next, init)
	e.next[w] = 0
	e.index.Visit(e.next) // the limit is at least 1
	events := transitionEvents(g)
	// edges[2*sig+dir] names the concrete edge a toggle of sig takes.
	edges := make([]string, 2*len(g.Signals))
	for i, sig := range g.Signals {
		edges[2*i+int(stg.Rise)] = sig.Name + stg.Rise.String()
		edges[2*i+int(stg.Fall)] = sig.Name + stg.Fall.String()
	}
	var arcs []ts.Arc
	var fired []int
	hooked := opts.Budget.Hooked()
	for head := 0; head < e.index.Len(); head++ {
		if hooked || head%budget.CheckEvery == 0 {
			if err := opts.Budget.Check("reach.toggle"); err != nil {
				return nil, nil, err
			}
		}
		e.first = append(e.first, int32(len(arcs)))
		cur := e.index.Key(int32(head))
		m, code := cur[:w], ts.Code(cur[w])
		for t := range g.Net.Transitions {
			if !c.Enabled(m, t) {
				continue
			}
			l := g.Labels[t]
			nextCode := code
			ev := events[t]
			if l.Sig >= 0 {
				bit := code.Bit(l.Sig)
				switch l.Dir {
				case stg.Rise:
					if bit {
						return nil, nil, inconsistent("reach: STG %s inconsistent: %s fires at value 1",
							g.Name(), g.Net.Transitions[t].Name)
					}
				case stg.Fall:
					if !bit {
						return nil, nil, inconsistent("reach: STG %s inconsistent: %s fires at value 0",
							g.Name(), g.Net.Transitions[t].Name)
					}
				case stg.Toggle:
					// Normalize the arc label to the edge actually taken.
					ev.Dir = stg.Rise
					if bit {
						ev.Dir = stg.Fall
					}
					ev.Name = edges[2*l.Sig+int(ev.Dir)]
				}
				nextCode = code.Flip(l.Sig)
			}
			if c.Fire(e.next, m, t) >= 0 {
				return nil, nil, fmt.Errorf("%w: firing %s", ErrUnsafe, g.Net.Transitions[t].Name)
			}
			e.next[w] = uint64(nextCode)
			to, _ := e.index.Visit(e.next)
			if to < 0 {
				return nil, nil, budget.LimitStates(maxStates, e.index.Len())
			}
			arcs = append(arcs, ts.Arc{Event: ev, To: int(to)})
			if withTrans {
				fired = append(fired, t)
			}
		}
	}
	e.first = append(e.first, int32(len(arcs)))

	sg, trans := e.assemble(g, func(s int) ts.Code { return ts.Code(e.index.Key(int32(s))[w]) }, arcs, fired, withTrans)
	return sg, trans, nil
}
