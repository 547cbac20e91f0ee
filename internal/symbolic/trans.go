package symbolic

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/petri"
)

// Trans is the precomputed symbolic firing data of one transition: the
// enabling condition, the values the touched variables take after firing,
// and the touched variable list. BuildTrans builds it for the
// one-variable-per-place encoding (input places marked, fresh output
// places empty — 1-safe no-contact semantics); Dense.Reach for the dense
// SM-cover encoding, without PostVal. Forward image of a set X through t is
//
//	AndExists(X, Enable, Touched) ∧ Result
//
// and the backward pre-image of Y is the mirror
//
//	AndExists(Y, Result, Touched) ∧ Enable.
type Trans struct {
	// Enable is the characteristic function of the markings where the
	// transition may fire.
	Enable bdd.Ref
	// Result is the cube of post-firing values of the touched places.
	Result bdd.Ref
	// Touched lists the variables read or written by the transition, in
	// declaration order (Pre before fresh Post places).
	Touched []int
	// PostVal[i] is the value variable Touched[i] holds after firing.
	PostVal []bool
}

// BuildTrans precomputes the per-transition enable/result functions of a
// safe net in manager m, mapping place p to variable offset+p.
// Construction is deterministic: touched lists follow the net's Pre/Post
// declaration order, so downstream fixpoints are reproducible.
//
// The returned functions are not reference-counted; callers that run
// garbage collection must IncRef them first.
func BuildTrans(n *petri.Net, m *bdd.Manager, offset int) []Trans {
	return BuildTransStride(n, m, offset, 1)
}

// BuildTransStride is BuildTrans with place p mapped to variable
// offset+stride*p. Callers laying several copies of the state space in one
// manager (e.g. the doubled encoding for state-coding conflicts) should
// interleave the copies — stride 2, offsets 0 and 1 — because relating
// corresponding places across widely separated variable blocks makes BDD
// sizes explode.
func BuildTransStride(n *petri.Net, m *bdd.Manager, offset, stride int) []Trans {
	ts := make([]Trans, len(n.Transitions))
	for t, tr := range n.Transitions {
		pre := map[int]bool{}
		post := map[int]bool{}
		for _, p := range tr.Pre {
			pre[p] = true
		}
		for _, p := range tr.Post {
			post[p] = true
		}
		enable := bdd.True
		result := bdd.True
		var touched []int
		var postVal []bool
		seen := map[int]bool{}
		for _, p := range tr.Pre {
			if seen[p] {
				continue
			}
			seen[p] = true
			enable = m.And(enable, m.Var(offset+stride*p))
			touched = append(touched, offset+stride*p)
			if post[p] {
				result = m.And(result, m.Var(offset+stride*p))
				postVal = append(postVal, true)
			} else {
				result = m.And(result, m.NVar(offset+stride*p))
				postVal = append(postVal, false)
			}
		}
		for _, p := range tr.Post {
			if seen[p] || pre[p] {
				continue
			}
			seen[p] = true
			enable = m.And(enable, m.NVar(offset+stride*p)) // 1-safe: no contact
			touched = append(touched, offset+stride*p)
			result = m.And(result, m.Var(offset+stride*p))
			postVal = append(postVal, true)
		}
		ts[t] = Trans{Enable: enable, Result: result, Touched: touched, PostVal: postVal}
	}
	return ts
}

// InitCube returns the cube of the net's initial marking with place p at
// variable offset+p. It fails on an initially unsafe place.
func InitCube(n *petri.Net, m *bdd.Manager, offset int) (bdd.Ref, error) {
	return InitCubeStride(n, m, offset, 1)
}

// InitCubeStride is InitCube with place p at variable offset+stride*p.
func InitCubeStride(n *petri.Net, m *bdd.Manager, offset, stride int) (bdd.Ref, error) {
	init := bdd.True
	for p, pl := range n.Places {
		if pl.Initial > 1 {
			return bdd.False, fmt.Errorf("symbolic: place %s initially unsafe", pl.Name)
		}
		if pl.Initial == 1 {
			init = m.And(init, m.Var(offset+stride*p))
		} else {
			init = m.And(init, m.NVar(offset+stride*p))
		}
	}
	return init, nil
}

// Image returns the forward image of from through every transition of ts:
// the markings reached from it by one firing. Every frontier fixpoint over
// Trans steps through it, whichever state encoding built ts.
func Image(m *bdd.Manager, from bdd.Ref, ts []Trans) bdd.Ref {
	next := bdd.False
	for _, tr := range ts {
		img := m.AndExists(from, tr.Enable, tr.Touched)
		if img == bdd.False {
			continue
		}
		next = m.Or(next, m.And(img, tr.Result))
	}
	return next
}

// SomeEnabled returns the characteristic function of the markings where at
// least one of the given transitions may fire.
func SomeEnabled(m *bdd.Manager, ts []Trans) bdd.Ref {
	some := bdd.False
	for _, tr := range ts {
		some = m.Or(some, tr.Enable)
	}
	return some
}
