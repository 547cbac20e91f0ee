// Package stubborn implements stubborn-set partial-order reduction (Valmari,
// Section 2.2): deadlock-preserving reachability exploration that fires only
// a "stubborn" subset of enabled transitions in each marking, ignoring most
// interleavings of concurrent transitions.
package stubborn

import (
	"strconv"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/stateindex"
)

// Result summarizes a reduced exploration.
type Result struct {
	// States is the number of markings visited.
	States int
	// Arcs is the number of firings explored.
	Arcs int
	// Deadlocks lists the deadlocked markings found.
	Deadlocks []petri.Marking
}

// Options bound the exploration.
type Options struct {
	// Budget adds cancellation, and its MaxStates tightens the default
	// cap of 1<<22 states; nil adds neither.
	Budget *budget.Budget
	// Obs is the parent observability span: the exploration records an
	// "engine:stubborn" child span and the stubborn.* counters (states,
	// arcs, deadlocks, budget checks) into its registry. nil disables
	// observability.
	Obs *obs.Span
}

func (o Options) maxStates() int { return o.Budget.StateLimit(1 << 22) }

// ErrStateLimit is the errors.Is anchor for state-limit aborts — an alias of
// budget.Sentinel(budget.States), shared with reach.ErrStateLimit, so the
// engines' limit errors are mutually errors.Is-compatible.
var ErrStateLimit = budget.Sentinel(budget.States)

// Explore runs deadlock-preserving reduced reachability: every deadlock of
// the full state space is reached, typically visiting far fewer states.
//
// On a state-limit trip or cancellation the partial Result — states and arcs
// visited, deadlocks found so far — is returned alongside the typed budget
// error.
func Explore(n *petri.Net, opts Options) (*Result, error) {
	sp := opts.Obs.Child("engine:stubborn")
	res, err := explore(n, opts, sp)
	if sp != nil {
		if res != nil {
			reg := sp.Registry()
			reg.Counter("stubborn.states").Add(int64(res.States))
			reg.Counter("stubborn.arcs").Add(int64(res.Arcs))
			reg.Counter("stubborn.deadlocks").Add(int64(len(res.Deadlocks)))
			sp.Attr("states", strconv.Itoa(res.States))
			sp.Attr("arcs", strconv.Itoa(res.Arcs))
			sp.Attr("deadlocks", strconv.Itoa(len(res.Deadlocks)))
		}
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End()
	}
	return res, err
}

func explore(n *petri.Net, opts Options, sp *obs.Span) (*Result, error) {
	c, err := petri.NewByteCodec(n)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	maxStates := opts.maxStates()
	// seen numbers the byte-packed markings; the DFS stack holds their ids.
	seen := stateindex.New(c.Words())
	next := make([]uint64, c.Words())
	m := n.InitialMarking()
	c.Pack(next, m)
	seen.Visit(next)
	stack := []int32{0}
	hooked := opts.Budget.Hooked()
	checks := sp.Registry().Counter("stubborn.budget_checks")
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++
		if res.States > maxStates {
			res.States--
			return res, budget.LimitStates(maxStates, res.States)
		}
		if hooked || res.States%budget.CheckEvery == 0 {
			checks.Inc()
			if err := opts.Budget.Check("stubborn.explore"); err != nil {
				return res, err
			}
		}
		cur := seen.Key(id)
		c.Unpack(m, cur)
		fire := stubbornEnabled(n, m)
		if len(fire) == 0 {
			res.Deadlocks = append(res.Deadlocks, m.Clone())
			continue
		}
		for _, t := range fire {
			if p := c.Fire(next, cur, t); p >= 0 {
				return res, c.OverflowError(t, p)
			}
			res.Arcs++
			if to, added := seen.Visit(next); added {
				stack = append(stack, to)
			}
		}
	}
	return res, nil
}

// stubbornEnabled computes the enabled part of a stubborn set at m using the
// classic closure rules for place/transition nets:
//
//	D1: for an enabled t in the set, every transition sharing an input place
//	    with t (a potential disabler) is in the set;
//	D2: for a disabled t in the set, all producers of one chosen unmarked
//	    input place are in the set.
//
// Seeded with the first enabled transition; returns all enabled members.
func stubbornEnabled(n *petri.Net, m petri.Marking) []int {
	seed := -1
	for t := range n.Transitions {
		if n.Enabled(m, t) {
			seed = t
			break
		}
	}
	if seed < 0 {
		return nil
	}
	inSet := map[int]bool{seed: true}
	work := []int{seed}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if n.Enabled(m, t) {
			// D1: conflicting transitions.
			for _, p := range n.Transitions[t].Pre {
				for _, u := range n.Places[p].Post {
					if !inSet[u] {
						inSet[u] = true
						work = append(work, u)
					}
				}
			}
		} else {
			// D2: pick the first unmarked input place deterministically.
			var chosen = -1
			for _, p := range n.Transitions[t].Pre {
				if m[p] == 0 {
					chosen = p
					break
				}
			}
			if chosen < 0 {
				continue
			}
			for _, u := range n.Places[chosen].Pre {
				if !inSet[u] {
					inSet[u] = true
					work = append(work, u)
				}
			}
		}
	}
	var out []int
	for t := range n.Transitions {
		if inSet[t] && n.Enabled(m, t) {
			out = append(out, t)
		}
	}
	return out
}
