package sim

import (
	"fmt"

	"repro/internal/petri"
	"repro/internal/stg"
)

// STG-level implementation verification (Section 2.1, Dill's trace theory
// [10]): an implementation STG conforms to a specification STG when, on the
// specification's signal alphabet,
//
//   - safety: every output edge the implementation can produce is allowed by
//     the specification in the corresponding state, and
//   - receptiveness: every input edge the specification's environment can
//     produce is accepted (enabled, possibly after internal moves) by the
//     implementation.
//
// The implementation may have extra internal signals and dummy events; they
// are hidden. Used e.g. to check that a back-annotated or hand-edited STG
// still implements the original interface.

// ConformanceViolation describes a failure of ConformsSTG.
type ConformanceViolation struct {
	// Kind is "safety" or "receptiveness".
	Kind string
	// Event is the offending signal edge.
	Event string
	// ImplMarking / SpecMarking identify the composed state.
	ImplMarking, SpecMarking string
}

func (v ConformanceViolation) String() string {
	return fmt.Sprintf("%s: %s at impl %s / spec %s", v.Kind, v.Event, v.ImplMarking, v.SpecMarking)
}

// ConformsSTG explores the parallel composition of implementation and
// specification token games, synchronizing on the specification's signals.
// It returns the violations found (empty = conforms). The product
// exploration stops with an error past 1<<20 states.
func ConformsSTG(impl, spec *stg.STG) ([]ConformanceViolation, error) {
	const maxStates = 1 << 20
	// Map spec signals into impl signal indexes.
	specToImpl := make([]int, len(spec.Signals))
	for i, s := range spec.Signals {
		idx := impl.SignalIndex(s.Name)
		if idx < 0 {
			return nil, fmt.Errorf("sim: impl lacks spec signal %s", s.Name)
		}
		if impl.Signals[idx].Kind != s.Kind {
			return nil, fmt.Errorf("sim: signal %s changes kind between impl and spec", s.Name)
		}
		specToImpl[i] = idx
	}
	implToSpec := make([]int, len(impl.Signals))
	for i := range implToSpec {
		implToSpec[i] = -1
	}
	for i, idx := range specToImpl {
		implToSpec[idx] = i
	}

	type node struct {
		im, sm petri.Marking
	}
	var out []ConformanceViolation
	seen := map[string]bool{}
	key := func(n node) string { return n.im.Key() + "|" + n.sm.Key() }
	start := node{im: impl.Net.InitialMarking(), sm: spec.Net.InitialMarking()}
	seen[key(start)] = true
	stack := []node{start}
	states := 0
	for len(stack) > 0 && len(out) == 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		states++
		if states > maxStates {
			return nil, fmt.Errorf("sim: conformance product exceeded %d states", maxStates)
		}

		push := func(n node) {
			if !seen[key(n)] {
				seen[key(n)] = true
				stack = append(stack, n)
			}
		}

		// Implementation moves.
		for t := range impl.Net.Transitions {
			if !impl.Net.Enabled(nd.im, t) {
				continue
			}
			l := impl.Labels[t]
			hidden := l.Sig < 0 || implToSpec[l.Sig] < 0
			nim := impl.Net.Fire(nd.im, t)
			if hidden {
				push(node{im: nim, sm: nd.sm})
				continue
			}
			specSig := implToSpec[l.Sig]
			if spec.Signals[specSig].Kind == stg.Input {
				// The environment owns inputs; the implementation can only
				// consume them when the spec offers them — handled below by
				// synchronizing on spec input moves.
				continue
			}
			// Output/internal-of-spec edge produced by the implementation:
			// the spec must accept it (safety).
			matched := false
			for st := range spec.Net.Transitions {
				sl := spec.Labels[st]
				if sl.Sig == specSig && sl.Dir == l.Dir && spec.Net.Enabled(nd.sm, st) {
					matched = true
					push(node{im: nim, sm: spec.Net.Fire(nd.sm, st)})
				}
			}
			if !matched {
				out = append(out, ConformanceViolation{
					Kind: "safety", Event: impl.Net.Transitions[t].Name,
					ImplMarking: nd.im.Format(impl.Net), SpecMarking: nd.sm.Format(spec.Net),
				})
			}
		}
		// Environment moves: spec input edges (and spec dummies).
		for st := range spec.Net.Transitions {
			if !spec.Net.Enabled(nd.sm, st) {
				continue
			}
			sl := spec.Labels[st]
			if sl.Sig < 0 {
				push(node{im: nd.im, sm: spec.Net.Fire(nd.sm, st)})
				continue
			}
			if spec.Signals[sl.Sig].Kind != stg.Input {
				continue
			}
			// The implementation must accept the input, possibly after
			// hidden moves (receptiveness).
			hits := inputClosure(impl, nd.im, specToImpl[sl.Sig], sl.Dir, implToSpec)
			if len(hits) == 0 {
				out = append(out, ConformanceViolation{
					Kind: "receptiveness", Event: spec.Net.Transitions[st].Name,
					ImplMarking: nd.im.Format(impl.Net), SpecMarking: nd.sm.Format(spec.Net),
				})
				continue
			}
			nsm := spec.Net.Fire(nd.sm, st)
			for _, im := range hits {
				push(node{im: im, sm: nsm})
			}
		}
	}
	return out, nil
}

// inputClosure finds implementation markings reachable from m by hidden
// moves where an input edge (sig,dir) is enabled, and returns the markings
// after firing it.
func inputClosure(impl *stg.STG, m petri.Marking, sig int, dir stg.Dir, implToSpec []int) []petri.Marking {
	var out []petri.Marking
	seen := map[string]bool{m.Key(): true}
	queue := []petri.Marking{m}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for t := range impl.Net.Transitions {
			if !impl.Net.Enabled(cur, t) {
				continue
			}
			l := impl.Labels[t]
			if l.Sig == sig && l.Dir == dir {
				out = append(out, impl.Net.Fire(cur, t))
				continue
			}
			hidden := l.Sig < 0 || implToSpec[l.Sig] < 0
			if !hidden {
				continue
			}
			next := impl.Net.Fire(cur, t)
			if !seen[next.Key()] {
				seen[next.Key()] = true
				queue = append(queue, next)
			}
		}
	}
	return out
}
