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
	"math/bits"

	"repro/internal/boolmin"
	"repro/internal/budget"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stateindex"
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
	// MaxViolations stops the search after this many failures (default 1).
	MaxViolations int
	// Constraints are relative timing assumptions pruning interleavings.
	Constraints []RelativeOrder
	// Budget adds cancellation, and its MaxStates tightens the composed
	// exploration's default cap of 1<<20 states; nil adds neither.
	// Exceeding the cap aborts with a typed budget.ErrLimit
	// (errors.Is-compatible with reach.ErrStateLimit) alongside the
	// partial Result.
	Budget *budget.Budget
	// SG is the spec's state graph when the caller has already built it
	// (the synthesis flow does): the initial code is read from it. nil
	// builds it with reach.BuildSG under Budget.
	SG *ts.SG
}

func (o Options) maxStates() int { return o.Budget.StateLimit(1 << 20) }

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

	cElems  []int   // C-element gates, checked for drive fights
	mutex   uint64  // mutex grant outputs, exempt from semimodularity
	env     []int   // spec transitions the environment fires: dummies and inputs
	dummies []int   // dummy transitions, the ε-closure's steps
	edges   [][]int // at 2*signal+dir: the spec transitions labelled with that edge
	// earlier[i] and later[i] are the netlist signals named by constraint
	// i's Earlier and Later events.
	earlier, later []uint64
	// fan[j] holds the outputs of the gates a move of netlist signal j can
	// excite or disable: those whose covers read j, and j's own gate.
	// gateOf[out] is the index of the gate driving signal out.
	fan    [64]uint64
	gateOf [64]int

	codec *petri.Codec // the spec's bit markings
	res   *Result
	moves []move // movesAt's result, reused from state to state
	// closure is closureMatches' visited set of dummy-reachable markings,
	// made on first use and reused from call to call, paths its dummy path
	// per marking and next its firing scratch.
	closure *stateindex.Index
	paths   [][]int
	next    []uint64
	// err is the first spec firing found to overfill a place; explore
	// returns it.
	err error
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
	if err := ver.explore(v0, permits0); err != nil {
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
	ver := &verifier{nl: nl, spec: spec, opts: opts, res: &Result{}}
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
	for i, g := range nl.Gates {
		switch g.Kind {
		case logic.CElem:
			ver.cElems = append(ver.cElems, i)
		case logic.MutexHalf:
			ver.mutex |= 1 << uint(g.Output)
		}
	}
	ver.setFan()
	ver.edges = make([][]int, 2*len(spec.Signals))
	for t := range spec.Net.Transitions {
		l := spec.Labels[t]
		switch {
		case l.Sig < 0:
			ver.env = append(ver.env, t)
			ver.dummies = append(ver.dummies, t)
			continue
		case spec.Signals[l.Sig].Kind == stg.Input:
			ver.env = append(ver.env, t)
		}
		if l.Dir == stg.Rise || l.Dir == stg.Fall {
			ver.edges[2*l.Sig+int(l.Dir)] = append(ver.edges[2*l.Sig+int(l.Dir)], t)
		}
	}
	named := func(name string) uint64 {
		var mask uint64
		for i, s := range nl.Signals {
			if s == name {
				mask |= 1 << uint(i)
			}
		}
		return mask
	}
	for _, c := range opts.Constraints {
		ver.earlier = append(ver.earlier, named(c.Earlier.Signal))
		ver.later = append(ver.later, named(c.Later.Signal))
	}
	codec, err := petri.NewBitCodec(spec.Net)
	if err != nil {
		return nil, 0, fmt.Errorf("sim: spec rejected: %w", err)
	}
	ver.codec = codec
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
	v0, err = ver.settleExtras(v0)
	if err != nil {
		return nil, 0, err
	}
	return ver, v0, nil
}

// setFan builds fan and gateOf from the netlist's gates.
func (ver *verifier) setFan() {
	for i := range ver.nl.Gates {
		g := &ver.nl.Gates[i]
		out := uint64(1) << uint(g.Output)
		ver.gateOf[g.Output] = i
		ver.fan[g.Output] |= out
		for _, cv := range []boolmin.Cover{g.F, g.Set, g.Reset} {
			for _, c := range cv.Cubes {
				for rest := c.Care; rest != 0; rest &= rest - 1 {
					ver.fan[bits.TrailingZeros64(rest)] |= out
				}
			}
		}
	}
}

// excitedAfter returns the excited gates at nv, the vector a move of
// netlist signal j leads to from a state whose excited gates are exc. It
// evaluates only the gates of fan[j]: Gate.Next reads nothing but the
// variables of the gate's covers and its own output, so flipping j leaves
// every other gate's excitation as it was, at any vector.
func (ver *verifier) excitedAfter(exc uint64, j int, nv uint64) uint64 {
	fan := ver.fan[j]
	exc &^= fan
	for rest := fan; rest != 0; rest &= rest - 1 {
		out := bits.TrailingZeros64(rest)
		if ver.nl.Gates[ver.gateOf[out]].Next(nv) != (nv>>uint(out)&1 != 0) {
			exc |= 1 << uint(out)
		}
	}
	return exc
}

// settleExtras finds stable values for implementation-only wires given the
// fixed spec-signal values in v.
func (ver *verifier) settleExtras(v uint64) (uint64, error) {
	var extras []int
	var extraMask uint64
	for i := range ver.nl.Signals {
		if ver.netToSpec[i] < 0 {
			extras = append(extras, i)
			extraMask |= 1 << uint(i)
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
		if ver.nl.ExcitedMask(cand)&extraMask == 0 {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("sim: no stable assignment for implementation-only wires")
}

// move is one step of the composed system.
type move struct {
	netSig int // fired netlist signal, -1 for a dummy transition
	dir    stg.Dir
	trans  int // spec transition fired, -1 for an implementation-only wire
	// dummies are the dummy transitions the ε-closure fires before trans;
	// nil when it fires none.
	dummies []int
}

// moveName names mv in violation texts: its spec transition, or the edge
// of an implementation-only wire.
func (ver *verifier) moveName(mv *move) string {
	if mv.trans >= 0 {
		return ver.spec.Net.Transitions[mv.trans].Name
	}
	return ver.nl.Signals[mv.netSig] + mv.dir.String()
}

func (ver *verifier) violate(kind ViolationKind, signal, msg string) {
	ver.res.Violations = append(ver.res.Violations, Violation{Kind: kind, Signal: signal, Msg: msg})
}

// explore runs the composed search. A state-limit trip or cancellation
// returns the typed budget error with the partial Result still populated;
// violations found before the abort are preserved.
func (ver *verifier) explore(v0 uint64, permits0 uint32) error {
	sp, err := ver.newSpace()
	if err != nil {
		return err
	}
	sp.visit(v0, permits0)
	// The DFS stack holds state ids, each with its excited gates.
	type entry struct {
		id  int32
		exc uint64
	}
	stack := []entry{{0, ver.nl.ExcitedMask(v0)}}
	maxStates, maxViol := ver.opts.maxStates(), ver.opts.maxViol()
	hooked := ver.opts.Budget.Hooked()
	for len(stack) > 0 && len(ver.res.Violations) < maxViol {
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

		m, v, permits := sp.state(nd.id)
		for _, gi := range ver.cElems {
			g := &ver.nl.Gates[gi]
			if g.Set.Eval(v) && g.Reset.Eval(v) {
				ver.violate(DriveFight, ver.nl.Signals[g.Output],
					fmt.Sprintf("set and reset both active at %b", v))
			}
		}
		moves := ver.movesAt(v, m, permits, nd.exc)
		if ver.err != nil {
			return ver.err
		}
		if len(moves) == 0 {
			if !ver.specDead(m) {
				ver.violate(Deadlock, "-",
					fmt.Sprintf("no moves at vector %b, spec marking %s", v, ver.codec.Format(m)))
			}
			continue
		}

		for i := range moves {
			mv := &moves[i]
			nv, nexc, fired := v, nd.exc, uint64(0)
			if mv.netSig >= 0 {
				fired = 1 << uint(mv.netSig)
				nv ^= fired
				nexc = ver.excitedAfter(nd.exc, mv.netSig, nv)
			}
			// Semimodularity: every excited gate other than the fired one
			// must stay excited, lowest signal reported first. Mutex grant
			// outputs are exempt: losing an arbitration race is the
			// element's job, not a hazard.
			for lost := nd.exc &^ nexc &^ ver.mutex &^ fired; lost != 0; lost &= lost - 1 {
				idx := bits.TrailingZeros64(lost)
				ver.violate(Hazard, ver.nl.Signals[idx], fmt.Sprintf("excited %s disabled by %s at vector %b",
					ver.nl.Signals[idx], ver.moveName(mv), v))
				if len(ver.res.Violations) >= maxViol {
					return nil
				}
			}
			if err := sp.fire(m, mv); err != nil {
				return err
			}
			if id, added := sp.visit(nv, ver.updatePermits(permits, mv)); added {
				stack = append(stack, entry{id, nexc})
			}
		}
	}
	return nil
}

// movesAt enumerates all moves at a state whose excited gates are exc:
// environment input firings and excited gate firings. Conformance
// violations are recorded here (an excited spec-visible gate with no
// matching enabled spec transition). Events blocked by a timing constraint
// without a permit are skipped entirely: physical design guarantees they
// cannot fire yet, so they are neither moves nor violations. The result is
// valid until the next call.
func (ver *verifier) movesAt(v uint64, m []uint64, permits uint32, exc uint64) []move {
	net := ver.spec.Net
	out := ver.moves[:0]
	// Environment moves: enabled dummy and input transitions of the spec.
	for _, t := range ver.env {
		if !ver.codec.Enabled(m, t) {
			continue
		}
		l := ver.spec.Labels[t]
		if l.Sig < 0 {
			// Dummy transition: advances the marking silently.
			out = append(out, move{netSig: -1, trans: t})
			continue
		}
		idx := ver.specToNet[l.Sig]
		cur := v&(1<<uint(idx)) != 0
		if (l.Dir == stg.Rise) == cur {
			// Spec/circuit value mismatch: the composed invariant is broken;
			// report as conformance once.
			ver.violate(Conformance, ver.spec.Signals[l.Sig].Name,
				fmt.Sprintf("input %s enabled in spec but wire already %v", net.Transitions[t].Name, cur))
			continue
		}
		if ver.blocked(idx, l.Dir, permits) {
			continue
		}
		out = append(out, move{netSig: idx, dir: l.Dir, trans: t})
	}
	// Gate moves.
	for rest := exc; rest != 0; rest &= rest - 1 {
		idx := bits.TrailingZeros64(rest)
		dir := stg.Rise
		if v&(1<<uint(idx)) != 0 {
			dir = stg.Fall
		}
		if ver.blocked(idx, dir, permits) {
			continue
		}
		specSig := ver.netToSpec[idx]
		if specSig < 0 {
			out = append(out, move{netSig: idx, dir: dir, trans: -1})
			continue
		}
		// Spec-visible output: must match a spec transition enabled in the
		// ε-closure of the marking (dummy transitions fire silently first).
		n := len(out)
		if out = ver.closureMatches(out, m, idx, specSig, dir); len(out) == n {
			ver.violate(Conformance, ver.nl.Signals[idx], fmt.Sprintf("circuit produces %s%s not expected at %s",
				ver.nl.Signals[idx], dir.String(), ver.codec.Format(m)))
		}
	}
	ver.moves = out
	return out
}

// closureMatches appends a move of netlist signal idx for every transition
// labelled (sig, dir) enabled at m or at a marking reachable from m by
// dummy transitions, with the dummy path that reaches it. A dummy firing
// that overfills a place sets ver.err.
func (ver *verifier) closureMatches(out []move, m []uint64, idx, sig int, dir stg.Dir) []move {
	edge := ver.edges[2*sig+int(dir)]
	if len(ver.dummies) == 0 {
		for _, t := range edge {
			if ver.codec.Enabled(m, t) {
				out = append(out, move{netSig: idx, dir: dir, trans: t})
			}
		}
		return out
	}
	if ver.closure == nil {
		ver.closure = stateindex.New(ver.codec.Words())
		ver.next = make([]uint64, ver.codec.Words())
	}
	cl, next := ver.closure, ver.next
	cl.Reset(ver.codec.Words(), 0)
	cl.Visit(m)
	paths := append(ver.paths[:0], nil)
	for head := int32(0); int(head) < cl.Len(); head++ {
		cur := cl.Key(head)
		for _, t := range edge {
			if ver.codec.Enabled(cur, t) {
				out = append(out, move{netSig: idx, dir: dir, trans: t, dummies: paths[head]})
			}
		}
		for _, t := range ver.dummies {
			if !ver.codec.Enabled(cur, t) {
				continue
			}
			if p := ver.codec.Fire(next, cur, t); p >= 0 {
				ver.err = ver.unsafeFiring(t, cur)
				return out
			}
			if _, added := cl.Visit(next); added {
				paths = append(paths, append(append([]int(nil), paths[head]...), t))
			}
		}
	}
	ver.paths = paths
	return out
}

// blocked reports whether a timing constraint whose permit is spent holds
// back edge dir of netlist signal idx.
func (ver *verifier) blocked(idx int, dir stg.Dir, permits uint32) bool {
	for ci, c := range ver.opts.Constraints {
		if ver.later[ci]&(1<<uint(idx)) != 0 && c.Later.Dir == dir && permits&(1<<uint(ci)) == 0 {
			return true
		}
	}
	return false
}

// updatePermits advances the per-constraint permit bits after a move:
// Earlier firings grant, Later firings consume.
func (ver *verifier) updatePermits(permits uint32, mv *move) uint32 {
	if mv.netSig < 0 {
		return permits
	}
	fired := uint64(1) << uint(mv.netSig)
	for ci, c := range ver.opts.Constraints {
		bit := uint32(1) << uint(ci)
		if ver.earlier[ci]&fired != 0 && c.Earlier.Dir == mv.dir {
			permits |= bit
		}
		if ver.later[ci]&fired != 0 && c.Later.Dir == mv.dir {
			permits &^= bit
		}
	}
	return permits
}

func (ver *verifier) specDead(m []uint64) bool {
	for t := range ver.spec.Net.Transitions {
		if ver.codec.Enabled(m, t) {
			return false
		}
	}
	return true
}

// unsafeFiring is the error of spec transition t overfilling a place when fired
// from m. BuildSG rejects such a spec, so only a caller's Options.SG from
// another spec lets the verifier meet one.
func (ver *verifier) unsafeFiring(t int, m []uint64) error {
	return fmt.Errorf("sim: spec rejected: %w: firing %s from %s", reach.ErrUnsafe,
		ver.spec.Net.Transitions[t].Name, ver.codec.Format(m))
}

// space is the visited set of a composed exploration: one index whose keys
// are the spec's packed marking, the circuit's vector and the timing
// permits, numbered in discovery order. Successor markings fire into the
// key scratch.
type space struct {
	ver   *verifier
	w     int // marking words
	index *stateindex.Index
	key   []uint64 // w marking words, the vector, the permits
	tmp   [2][]uint64
}

// newSpace returns the composed system's space with the spec's initial
// marking in its key scratch. Handed the spec's state graph, it sizes the
// index for as many states: a correct circuit composes to exactly that many
// when it adds no wire, the spec has no dummy and no timing constraint
// splits a state by its permits.
func (ver *verifier) newSpace() (*space, error) {
	w := ver.codec.Words()
	sp := &space{ver: ver, w: w, index: stateindex.New(w + 2), key: make([]uint64, w+2),
		tmp: [2][]uint64{make([]uint64, w), make([]uint64, w)}}
	if ver.opts.SG != nil {
		sp.index.Reserve(min(ver.opts.SG.NumStates(), ver.opts.maxStates()))
	}
	init := ver.spec.Net.InitialMarking()
	if !init.Safe() {
		return nil, fmt.Errorf("sim: spec rejected: %w: initial marking %s", reach.ErrUnsafe,
			init.Format(ver.spec.Net))
	}
	ver.codec.Pack(sp.key, init)
	return sp, nil
}

// state returns state id's marking, vector and permits.
func (sp *space) state(id int32) ([]uint64, uint64, uint32) {
	k := sp.index.Key(id)
	return k[:sp.w], k[sp.w], uint32(k[sp.w+1])
}

// fire writes the marking mv reaches from m into the key scratch.
func (sp *space) fire(m []uint64, mv *move) error {
	if mv.trans < 0 {
		copy(sp.key, m)
		return nil
	}
	c, cur := sp.ver.codec, m
	for i, t := range mv.dummies {
		if c.Fire(sp.tmp[i%2], cur, t) >= 0 {
			return sp.ver.unsafeFiring(t, cur)
		}
		cur = sp.tmp[i%2]
	}
	if c.Fire(sp.key[:sp.w], cur, mv.trans) >= 0 {
		return sp.ver.unsafeFiring(mv.trans, cur)
	}
	return nil
}

// visit looks up the state of the scratch marking with vector v and
// permits, adding it as the next id when unseen. It returns the state's id
// and whether it was added.
func (sp *space) visit(v uint64, permits uint32) (int32, bool) {
	sp.key[sp.w], sp.key[sp.w+1] = v, uint64(permits)
	return sp.index.Visit(sp.key)
}
