package reach

import (
	"fmt"

	"repro/internal/petri"
)

// Boundedness check (the first implementability property of Section 2.1:
// "boundedness of the PN to guarantee that the specified state space is
// finite"). Unboundedness of a Petri net is witnessed by a firing sequence
// reaching a marking strictly covering an earlier one (Karp–Miller): the
// pumping segment can repeat forever.

// BoundedResult reports the outcome of CheckBounded.
type BoundedResult struct {
	Bounded bool
	// Bound is the largest token count seen in any place (valid when
	// Bounded).
	Bound int
	// Witness holds, for unbounded nets, the covering pair (smaller,
	// larger) proving unboundedness.
	Witness [2]petri.Marking
}

// CheckBounded explores the reachability tree with the Karp–Miller covering
// criterion: a branch reaching a marking that strictly covers one of its
// ancestors proves unboundedness. Verdicts are sound in both directions —
// "bounded" means the full (finite) reachability set was enumerated,
// "unbounded" carries a covering-pair witness. An inconclusive run returns
// an error instead of a verdict: the maxStates budget (0 = 1<<20) ran out
// first, or a firing would put a 256th token in a place, which a byte
// marking cannot count (petri.ErrTokenOverflow).
func CheckBounded(n *petri.Net, maxStates int) (*BoundedResult, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	res := &BoundedResult{Bounded: true, Bound: 0}
	seen := map[string]bool{}
	type frame struct {
		m petri.Marking
		// ancestors along the current DFS path.
		path []petri.Marking
	}
	init := n.InitialMarking()
	stack := []frame{{m: init}}
	seen[init.Key()] = true
	count := 0
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		if count > maxStates {
			return nil, fmt.Errorf("reach: boundedness check exceeded %d states", maxStates)
		}
		for _, v := range fr.m {
			if int(v) > res.Bound {
				res.Bound = int(v)
			}
		}
		for t := range n.Transitions {
			if !n.Enabled(fr.m, t) {
				continue
			}
			next, err := fire(n, fr.m, t)
			if err != nil {
				return nil, err
			}
			for _, anc := range append(fr.path, fr.m) {
				if strictlyCovers(next, anc) {
					res.Bounded = false
					res.Witness = [2]petri.Marking{anc.Clone(), next.Clone()}
					return res, nil
				}
			}
			if seen[next.Key()] {
				continue
			}
			seen[next.Key()] = true
			path := append(append([]petri.Marking(nil), fr.path...), fr.m)
			stack = append(stack, frame{m: next, path: path})
		}
	}
	return res, nil
}

// fire returns the marking reached by firing the enabled transition t from
// m, or an error when a place would receive a 256th token.
func fire(n *petri.Net, m petri.Marking, t int) (petri.Marking, error) {
	next := m.Clone()
	tr := &n.Transitions[t]
	for _, p := range tr.Pre {
		next[p]--
	}
	for _, p := range tr.Post {
		if next[p] == 255 {
			return nil, fmt.Errorf("reach: boundedness check: %w: firing %s puts a 256th token in %s",
				petri.ErrTokenOverflow, tr.Name, n.Places[p].Name)
		}
		next[p]++
	}
	return next, nil
}

// strictlyCovers reports a >= b componentwise with at least one strict
// inequality.
func strictlyCovers(a, b petri.Marking) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}
