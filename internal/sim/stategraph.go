package sim

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/stg"
	"repro/internal/ts"
)

// StateGraph explores the closed circuit×environment system like Verify and
// returns it as a state graph over the netlist's signals. This is the input
// to back-annotation (Section 4): a Petri net extracted from this SG is the
// STG of the implementation, including decomposition wires such as map0
// (Figure 10a). The exploration fails on the first violation — extract state
// graphs only from verified circuits.
func StateGraph(nl *logic.Netlist, spec *stg.STG, opts Options) (*ts.SG, error) {
	if len(opts.Constraints) > 0 {
		return nil, fmt.Errorf("sim: StateGraph does not support timing constraints; prune afterwards")
	}
	ver, v0, err := newVerifier(nl, spec, opts)
	if err != nil {
		return nil, err
	}
	// The key is the binary vector, "|", then the spec marking.
	out := &ts.SG{Name: nl.Name + "-impl", FormatKey: func(key string) string {
		return petri.Marking(key[strings.IndexByte(key, '|')+1:]).Format(spec.Net)
	}}
	for i, name := range nl.Signals {
		kind := stg.Internal
		if s := ver.netToSpec[i]; s >= 0 {
			kind = spec.Signals[s].Kind
		}
		out.Signals = append(out.Signals, stg.Signal{Name: name, Kind: kind})
	}

	type node struct {
		v uint64
		m petri.Marking
	}
	index := map[compKey]int{}
	addState := func(v uint64, m petri.Marking) int {
		key := compKey{v, m.Key(), 0}
		if i, ok := index[key]; ok {
			return i
		}
		i := len(out.States)
		index[key] = i
		out.States = append(out.States, ts.State{Code: ts.Code(v), Key: fmt.Sprintf("%b|%s", v, m.Key())})
		out.Out = append(out.Out, nil)
		return i
	}
	m0 := spec.Net.InitialMarking()
	start := addState(v0, m0)
	out.Initial = start
	stack := []node{{v0, m0}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		si := index[compKey{nd.v, nd.m.Key(), 0}]
		moves := ver.movesAt(nd.v, nd.m, 0)
		if len(ver.res.Violations) > 0 {
			return nil, fmt.Errorf("sim: cannot extract SG from violating circuit: %v",
				ver.res.Violations[0])
		}
		for _, mv := range moves {
			nv := nd.v
			if mv.netSig >= 0 {
				nv ^= 1 << uint(mv.netSig)
			}
			nm := nd.m
			for _, t := range mv.specPath {
				nm = ver.spec.Net.Fire(nm, t)
			}
			key := compKey{nv, nm.Key(), 0}
			_, existed := index[key]
			di := addState(nv, nm)
			ev := ts.Event{Sig: mv.netSig, Dir: mv.dir, Name: mv.name}
			if mv.netSig >= 0 {
				ev.Name = nl.Signals[mv.netSig] + mv.dir.String()
			}
			out.Out[si] = append(out.Out[si], ts.Arc{Event: ev, To: di})
			if !existed {
				stack = append(stack, node{nv, nm})
			}
			if len(out.States) > ver.opts.maxStates() {
				return nil, fmt.Errorf("sim: state limit exceeded")
			}
		}
	}
	return out, nil
}
