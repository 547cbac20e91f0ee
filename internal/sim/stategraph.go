package sim

import (
	"fmt"
	"strings"

	"repro/internal/budget"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/stg"
	"repro/internal/ts"
)

// StateGraph explores the closed circuit×environment system like Verify and
// returns it as a state graph over the netlist's signals. This is the input
// to back-annotation (Section 4): a Petri net extracted from this SG is the
// STG of the implementation, including decomposition wires such as map0
// (Figure 10a). The exploration fails on the first conformance violation —
// extract state graphs only from verified circuits. Like Verify it polls
// Options.Budget, and its state cap trips with a typed budget.ErrLimit.
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

	sp, err := ver.newSpace()
	if err != nil {
		return nil, err
	}
	// add appends the state sp just added: its id is its number in out,
	// and the DFS stack holds ids.
	bytes := make(petri.Marking, len(spec.Net.Places))
	add := func(id int32) {
		m, v, _ := sp.state(id)
		out.States = append(out.States, ts.State{Code: ts.Code(v),
			Key: fmt.Sprintf("%b|%s", v, ver.codec.Unpack(bytes, m).Key())})
		out.Out = append(out.Out, nil)
	}
	sp.visit(v0, 0)
	add(0)
	stack := []int32{0}
	maxStates := ver.opts.maxStates()
	hooked := ver.opts.Budget.Hooked()
	for popped := 1; len(stack) > 0; popped++ {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if hooked || popped%budget.CheckEvery == 0 {
			if err := ver.opts.Budget.Check("sim.explore"); err != nil {
				return nil, err
			}
		}
		m, v, _ := sp.state(id)
		moves := ver.movesAt(v, m, 0, nl.ExcitedMask(v))
		if ver.err != nil {
			return nil, ver.err
		}
		if len(ver.res.Violations) > 0 {
			return nil, fmt.Errorf("sim: cannot extract SG from violating circuit: %v",
				ver.res.Violations[0])
		}
		for i := range moves {
			mv := &moves[i]
			nv := v
			ev := ts.Event{Sig: mv.netSig, Dir: mv.dir}
			if mv.netSig >= 0 {
				nv ^= 1 << uint(mv.netSig)
				ev.Name = nl.Signals[mv.netSig] + mv.dir.String()
			} else {
				ev.Name = spec.Net.Transitions[mv.trans].Name
			}
			if err := sp.fire(m, mv); err != nil {
				return nil, err
			}
			to, added := sp.visit(nv, 0)
			if added {
				if len(out.States) >= maxStates {
					return nil, budget.LimitStates(maxStates, len(out.States))
				}
				add(to)
				stack = append(stack, to)
			}
			out.Out[id] = append(out.Out[id], ts.Arc{Event: ev, To: int(to)})
		}
	}
	return out, nil
}
