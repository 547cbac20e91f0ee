// Package sim verifies gate-level implementations against STG
// specifications. It composes a netlist with a token-game model of the
// environment (the mirror of the spec) and exhaustively explores the closed
// system under arbitrary gate delays, checking:
//
//   - semimodularity: an excited gate must stay excited until it fires —
//     a gate disabled while excited is a hazard (Section 3.3);
//   - conformance: the circuit never produces an output edge the
//     specification does not expect (implementation verification,
//     Section 2.1);
//   - drive fights in generalized C-elements (set and reset both active);
//   - absence of deadlock while the specification expects progress.
//
// Speed-independence of an implementation = the exploration finds no
// violation. Relative timing constraints (Section 5) can be supplied to
// prune interleavings the physical design guarantees cannot happen, turning
// the check into "SI under timing assumptions".
package sim

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// EventRef names a signal edge, e.g. {Signal:"D", Dir:stg.Fall}.
type EventRef struct {
	Signal string
	Dir    stg.Dir
}

func (e EventRef) String() string { return e.Signal + e.Dir.String() }

// RelativeOrder is a relative timing constraint — the paper's
// sep(Earlier, Later) < 0 (Section 5). Semantics in the verifier are
// trace-based: an occurrence of Later may only fire after an occurrence of
// Earlier has fired (firing Later consumes the permission; firings of
// Earlier saturate it). InitialPermit allows the first Later before any
// Earlier, for behaviours where Later legitimately starts the first cycle.
type RelativeOrder struct {
	Earlier, Later EventRef
	InitialPermit  bool
}

func (r RelativeOrder) String() string {
	return fmt.Sprintf("sep(%s,%s)<0", r.Earlier, r.Later)
}

// ViolationKind classifies verification failures.
type ViolationKind int

const (
	// Hazard: a gate was excited and got disabled without firing.
	Hazard ViolationKind = iota
	// Conformance: the circuit produced an output edge the spec does not
	// accept in the current state.
	Conformance
	// DriveFight: a C-element's set and reset networks were simultaneously
	// active.
	DriveFight
	// Deadlock: the closed system stopped while the spec expects progress.
	Deadlock
)

func (k ViolationKind) String() string {
	switch k {
	case Hazard:
		return "hazard"
	case Conformance:
		return "conformance"
	case DriveFight:
		return "drive-fight"
	case Deadlock:
		return "deadlock"
	}
	return "?"
}

// Violation is one verification failure with a human-readable witness.
type Violation struct {
	Kind   ViolationKind
	Signal string
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s(%s): %s", v.Kind, v.Signal, v.Msg)
}

// Result summarizes a verification run.
type Result struct {
	// States is the number of composed (circuit × environment) states.
	States int
	// Violations lists failures, up to Options.MaxViolations.
	Violations []Violation
}

// OK reports whether the implementation is speed-independent and conformant.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Options configure a verification run.
type Options struct {
	// MaxStates bounds the composed exploration (default 1<<20). Exceeding
	// it aborts with a typed budget.ErrLimit (errors.Is-compatible with
	// reach.ErrStateLimit) alongside the partial Result.
	MaxStates int
	// MaxViolations stops the search after this many failures (default 1).
	MaxViolations int
	// Constraints are relative timing assumptions pruning interleavings.
	Constraints []RelativeOrder
	// Budget adds cancellation and tightens MaxStates; nil is unlimited.
	Budget *budget.Budget
	// SG is the spec's state graph when the caller has already built it
	// (the synthesis flow does): the initial code is read from it. nil
	// builds it with reach.BuildSG.
	SG *ts.SG
}

func (o Options) maxStates() int {
	cap := o.MaxStates
	if cap <= 0 {
		cap = 1 << 20
	}
	return o.Budget.StateLimit(cap)
}

func (o Options) maxViol() int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return 1
}

type verifier struct {
	nl   *logic.Netlist
	spec *stg.STG
	opts Options

	specToNet []int // spec signal -> netlist signal
	netToSpec []int // netlist signal -> spec signal or -1

	res  *Result
	seen map[compKey]bool
}

type compKey struct {
	v       uint64
	m       string
	permits uint32
}

// Verify explores the closed circuit×environment system. The netlist must
// contain every spec signal (matched by name); it may contain additional
// implementation-only wires (decomposition signals).
func Verify(nl *logic.Netlist, spec *stg.STG, opts Options) (*Result, error) {
	ver, v0, err := newVerifier(nl, spec, opts)
	if err != nil {
		return nil, err
	}
	if len(opts.Constraints) > 32 {
		return nil, fmt.Errorf("sim: more than 32 timing constraints")
	}
	var permits0 uint32
	for i, c := range opts.Constraints {
		if c.InitialPermit {
			permits0 |= 1 << uint(i)
		}
	}
	m0 := spec.Net.InitialMarking()
	if err := ver.explore(v0, m0, permits0); err != nil {
		return ver.res, err
	}
	return ver.res, nil
}

// newVerifier validates nl against spec, maps the spec's signals into the
// netlist, and returns the composed system's initial vector: the spec's
// initial code in netlist space, with implementation-only wires settled to
// a stable assignment.
func newVerifier(nl *logic.Netlist, spec *stg.STG, opts Options) (*verifier, uint64, error) {
	if err := nl.Validate(); err != nil {
		return nil, 0, err
	}
	if len(nl.Signals) > 64 {
		return nil, 0, fmt.Errorf("sim: more than 64 netlist signals")
	}
	ver := &verifier{nl: nl, spec: spec, opts: opts, res: &Result{}, seen: map[compKey]bool{}}
	ver.specToNet = make([]int, len(spec.Signals))
	ver.netToSpec = make([]int, len(nl.Signals))
	for i := range ver.netToSpec {
		ver.netToSpec[i] = -1
	}
	for i, s := range spec.Signals {
		idx := nl.SignalIndex(s.Name)
		if idx < 0 {
			return nil, 0, fmt.Errorf("sim: spec signal %s missing from netlist", s.Name)
		}
		ver.specToNet[i] = idx
		ver.netToSpec[idx] = i
	}
	specSG := opts.SG
	if specSG == nil {
		sg, err := reach.BuildSG(spec, reach.Options{Budget: opts.Budget})
		if err != nil {
			return nil, 0, fmt.Errorf("sim: spec rejected: %w", err)
		}
		specSG = sg
	}
	var v0 uint64
	for i := range spec.Signals {
		if specSG.States[specSG.Initial].Code.Bit(i) {
			v0 |= 1 << uint(ver.specToNet[i])
		}
	}
	v0, err := ver.settleExtras(v0)
	if err != nil {
		return nil, 0, err
	}
	return ver, v0, nil
}

// settleExtras finds stable values for implementation-only wires given the
// fixed spec-signal values in v.
func (ver *verifier) settleExtras(v uint64) (uint64, error) {
	var extras []int
	for i := range ver.nl.Signals {
		if ver.netToSpec[i] < 0 {
			extras = append(extras, i)
		}
	}
	if len(extras) == 0 {
		return v, nil
	}
	if len(extras) > 16 {
		return 0, fmt.Errorf("sim: too many implementation-only wires (%d)", len(extras))
	}
	for combo := 0; combo < 1<<uint(len(extras)); combo++ {
		cand := v
		for bi, idx := range extras {
			if combo&(1<<uint(bi)) != 0 {
				cand |= 1 << uint(idx)
			}
		}
		ok := true
		for _, idx := range extras {
			if ver.nl.GateFor(idx) != nil && ver.nl.Excited(cand, idx) {
				ok = false
				break
			}
		}
		if ok {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("sim: no stable assignment for implementation-only wires")
}

type move struct {
	// fired netlist signal (or -1 for a pure environment move on an input).
	netSig int
	dir    stg.Dir
	name   string
	// specPath lists the spec transitions fired by this move: possibly a
	// prefix of dummy transitions (ε-closure) followed by the labeled one.
	specPath []int
	isInput  bool
}

// explore runs the composed search. A state-limit trip or cancellation
// returns the typed budget error with the partial Result still populated;
// violations found before the abort are preserved.
func (ver *verifier) explore(v0 uint64, m0 petri.Marking, permits0 uint32) error {
	type node struct {
		v       uint64
		m       petri.Marking
		permits uint32
	}
	start := node{v0, m0, permits0}
	ver.seen[compKey{v0, m0.Key(), permits0}] = true
	stack := []node{start}
	maxStates := ver.opts.maxStates()
	hooked := ver.opts.Budget.Hooked()
	for len(stack) > 0 && len(ver.res.Violations) < ver.opts.maxViol() {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ver.res.States++
		if ver.res.States > maxStates {
			ver.res.States--
			return budget.LimitStates(maxStates, ver.res.States)
		}
		if hooked || ver.res.States%budget.CheckEvery == 0 {
			if err := ver.opts.Budget.Check("sim.explore"); err != nil {
				return err
			}
		}

		// Drive fights.
		for i := range ver.nl.Gates {
			g := &ver.nl.Gates[i]
			if g.Kind == logic.CElem && g.Set.Eval(nd.v) && g.Reset.Eval(nd.v) {
				ver.res.Violations = append(ver.res.Violations, Violation{
					Kind: DriveFight, Signal: ver.nl.Signals[g.Output],
					Msg: fmt.Sprintf("set and reset both active at %b", nd.v),
				})
			}
		}
		moves := ver.movesAt(nd.v, nd.m, nd.permits)
		if len(moves) == 0 {
			if !ver.specDead(nd.m) {
				ver.res.Violations = append(ver.res.Violations, Violation{
					Kind: Deadlock, Signal: "-",
					Msg: fmt.Sprintf("no moves at vector %b, spec marking %s", nd.v, nd.m.Format(ver.spec.Net)),
				})
			}
			continue
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
			// Semimodularity: every excited gate not equal to the fired one
			// must stay excited. Mutex grant outputs are exempt: losing an
			// arbitration race is the element's job, not a hazard.
			for idx := range ver.nl.Signals {
				gate := ver.nl.GateFor(idx)
				if idx == mv.netSig || gate == nil || gate.Kind == logic.MutexHalf {
					continue
				}
				if ver.nl.Excited(nd.v, idx) && !ver.nl.Excited(nv, idx) {
					ver.res.Violations = append(ver.res.Violations, Violation{
						Kind: Hazard, Signal: ver.nl.Signals[idx],
						Msg: fmt.Sprintf("excited %s disabled by %s at vector %b",
							ver.nl.Signals[idx], mv.name, nd.v),
					})
					if len(ver.res.Violations) >= ver.opts.maxViol() {
						return nil
					}
				}
			}
			np := ver.updatePermits(nd.permits, mv)
			key := compKey{nv, nm.Key(), np}
			if !ver.seen[key] {
				ver.seen[key] = true
				stack = append(stack, node{nv, nm, np})
			}
		}
	}
	return nil
}

// movesAt enumerates all moves: environment input firings and excited gate
// firings. Conformance violations are recorded here (an excited spec-visible
// gate with no matching enabled spec transition). Events blocked by a timing
// constraint without a permit are skipped entirely: physical design
// guarantees they cannot fire yet, so they are neither moves nor violations.
func (ver *verifier) movesAt(v uint64, m petri.Marking, permits uint32) []move {
	blocked := func(signal string, dir stg.Dir) bool {
		for ci, c := range ver.opts.Constraints {
			if c.Later.Signal == signal && c.Later.Dir == dir && permits&(1<<uint(ci)) == 0 {
				return true
			}
		}
		return false
	}
	var out []move
	// Environment moves: enabled input transitions of the spec.
	for t := range ver.spec.Net.Transitions {
		if !ver.spec.Net.Enabled(m, t) {
			continue
		}
		l := ver.spec.Labels[t]
		if l.Sig < 0 {
			// Dummy transition: advances the marking silently.
			out = append(out, move{netSig: -1, specPath: []int{t},
				name: ver.spec.Net.Transitions[t].Name})
			continue
		}
		if ver.spec.Signals[l.Sig].Kind != stg.Input {
			continue // outputs fire only when the circuit drives them
		}
		idx := ver.specToNet[l.Sig]
		cur := v&(1<<uint(idx)) != 0
		if (l.Dir == stg.Rise) == cur {
			// Spec/circuit value mismatch: the composed invariant is broken;
			// report as conformance once.
			ver.res.Violations = append(ver.res.Violations, Violation{
				Kind: Conformance, Signal: ver.spec.Signals[l.Sig].Name,
				Msg: fmt.Sprintf("input %s enabled in spec but wire already %v",
					ver.spec.Net.Transitions[t].Name, cur),
			})
			continue
		}
		if blocked(ver.spec.Signals[l.Sig].Name, l.Dir) {
			continue
		}
		out = append(out, move{netSig: idx, dir: l.Dir, specPath: []int{t},
			name: ver.spec.Net.Transitions[t].Name, isInput: true})
	}
	// Gate moves.
	for idx := range ver.nl.Signals {
		if ver.nl.GateFor(idx) == nil || !ver.nl.Excited(v, idx) {
			continue
		}
		cur := v&(1<<uint(idx)) != 0
		dir := stg.Rise
		if cur {
			dir = stg.Fall
		}
		if blocked(ver.nl.Signals[idx], dir) {
			continue
		}
		specSig := ver.netToSpec[idx]
		if specSig < 0 {
			out = append(out, move{netSig: idx, dir: dir,
				name: ver.nl.Signals[idx] + dir.String()})
			continue
		}
		// Spec-visible output: must match a spec transition enabled in the
		// ε-closure of the marking (dummy transitions fire silently first).
		matched := false
		for _, hit := range ver.closureMatches(m, specSig, dir) {
			matched = true
			out = append(out, move{netSig: idx, dir: dir, specPath: hit,
				name: ver.spec.Net.Transitions[hit[len(hit)-1]].Name})
		}
		if !matched {
			ver.res.Violations = append(ver.res.Violations, Violation{
				Kind: Conformance, Signal: ver.nl.Signals[idx],
				Msg: fmt.Sprintf("circuit produces %s%s not expected at %s",
					ver.nl.Signals[idx], dir.String(), m.Format(ver.spec.Net)),
			})
		}
	}
	return out
}

// closureMatches finds transitions labeled (sig,dir) enabled at m or at any
// marking reachable from m by dummy transitions; each hit is returned as the
// dummy path plus the labeled transition.
func (ver *verifier) closureMatches(m petri.Marking, sig int, dir stg.Dir) [][]int {
	type node struct {
		m    petri.Marking
		path []int
	}
	var out [][]int
	seen := map[string]bool{m.Key(): true}
	queue := []node{{m: m}}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for t := range ver.spec.Net.Transitions {
			if !ver.spec.Net.Enabled(nd.m, t) {
				continue
			}
			l := ver.spec.Labels[t]
			if l.Sig == sig && l.Dir == dir {
				out = append(out, append(append([]int(nil), nd.path...), t))
				continue
			}
			if l.Sig >= 0 {
				continue
			}
			next := ver.spec.Net.Fire(nd.m, t)
			if !seen[next.Key()] {
				seen[next.Key()] = true
				queue = append(queue, node{m: next, path: append(append([]int(nil), nd.path...), t)})
			}
		}
	}
	return out
}

// updatePermits advances the per-constraint permit bits after a move:
// Earlier firings grant, Later firings consume.
func (ver *verifier) updatePermits(permits uint32, mv move) uint32 {
	for ci, c := range ver.opts.Constraints {
		bit := uint32(1) << uint(ci)
		if ver.matches(mv, c.Earlier) {
			permits |= bit
		}
		if ver.matches(mv, c.Later) {
			permits &^= bit
		}
	}
	return permits
}

func (ver *verifier) matches(mv move, e EventRef) bool {
	return mv.netSig >= 0 && ver.nl.Signals[mv.netSig] == e.Signal && mv.dir == e.Dir
}

func (ver *verifier) specDead(m petri.Marking) bool {
	for t := range ver.spec.Net.Transitions {
		if ver.spec.Net.Enabled(m, t) {
			return false
		}
	}
	return true
}
