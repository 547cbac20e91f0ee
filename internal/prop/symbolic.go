package prop

import (
	"fmt"
	"math/big"

	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/stg"
	"repro/internal/symbolic"
	"repro/internal/ts"
)

// checkSymbolic evaluates properties with BDD fixpoints over the
// place-level encoding of internal/symbolic — the state graph is never
// enumerated. Signal values are derived per signal as the least
// One/Zero partition consistent with the edge labels (the symbolic
// counterpart of reach.BuildSG's code inference); USC/CSC atoms use a
// doubled variable space holding two copies of the state so that
// code-sharing pairs are a conjunction, not an enumeration.
//
// Traces are extracted from the onion rings of the reachability fixpoint:
// the first ring meeting the target yields a concrete state, and a
// deterministic backward walk through the rings replays a minimal firing
// sequence from the initial marking.
func checkSymbolic(g *stg.STG, props []Property, opts Options, sp *obs.Span) (*Report, error) {
	for t, l := range g.Labels {
		if l.Sig >= 0 && l.Dir == stg.Toggle {
			return nil, fmt.Errorf("prop: symbolic engine cannot check toggle transition %s (normalize the spec first)",
				g.Net.Transitions[t].Name)
		}
	}
	P := len(g.Net.Places)
	if P > 2048 {
		return nil, fmt.Errorf("prop: %d places is unreasonable", P)
	}
	needPair := false
	for _, p := range props {
		if usesPair(p.F) {
			needPair = true
			break
		}
	}
	// With pair atoms the two state copies interleave (place p at 2p and
	// 2p+1): relating corresponding places across separated variable
	// blocks makes the conflict-pair BDDs explode.
	vars, stride := P, 1
	if needPair {
		vars, stride = 2*P, 2
	}
	c := &symChecker{
		g:      g,
		P:      P,
		stride: stride,
		m:      bdd.New(vars),
		opts:   opts,
		iters:  sp.Registry().Counter("prop.iterations"),
		memo:   map[*Formula]bdd.Ref{},
	}
	if err := c.prepare(needPair); err != nil {
		if isBudget(err) {
			return unknownReport(string(EngineSymbolic), props), err
		}
		return nil, err
	}
	rep := unknownReport(string(EngineSymbolic), props)
	rep.States = c.stateCount()
	for i, p := range props {
		v, err := c.verdict(p)
		if err != nil {
			return rep, err
		}
		rep.Verdicts[i] = v
	}
	return rep, nil
}

// usesPair reports whether the formula needs the doubled state encoding.
func usesPair(f *Formula) bool {
	if f == nil {
		return false
	}
	return f.Op == OpUSC || f.Op == OpCSC || usesPair(f.L) || usesPair(f.R)
}

// symChecker never runs garbage collection or reordering, so every Ref it
// produces stays valid without reference counting; the node ceiling is
// still enforced through Budget.CheckNodes.
type symChecker struct {
	g      *stg.STG
	P      int
	stride int // 1, or 2 when the pair copies are interleaved
	m      *bdd.Manager
	opts   Options
	iters  *obs.Counter
	memo   map[*Formula]bdd.Ref

	ts      []symbolic.Trans // copy A: place p at variable varA(p)
	reach   bdd.Ref          // reachable markings (copy A)
	rings   []bdd.Ref        // frontier of each fixpoint step; rings[0] = init
	one     []bdd.Ref        // per-signal value-1 states within reach
	initVec []bool

	tsB    []symbolic.Trans // copy B: place p at variable varB(p) (pair atoms only)
	reachB bdd.Ref
	oneB   []bdd.Ref
}

// varA and varB map a place to its variable in each state copy.
func (c *symChecker) varA(p int) int { return c.stride * p }
func (c *symChecker) varB(p int) int { return c.stride*p + 1 }

func (c *symChecker) prepare(needPair bool) error {
	n := c.g.Net
	c.ts = symbolic.BuildTransStride(n, c.m, 0, c.stride)
	c.initVec = make([]bool, c.m.NumVars())
	for p, pl := range n.Places {
		c.initVec[c.varA(p)] = pl.Initial > 0
	}
	var err error
	c.reach, c.rings, err = c.explore(0, c.ts, true)
	if err != nil {
		return err
	}
	c.one, err = c.values(0, c.ts, c.reach)
	if err != nil {
		return err
	}
	if !needPair {
		return nil
	}
	c.tsB = symbolic.BuildTransStride(n, c.m, 1, c.stride)
	c.reachB, _, err = c.explore(1, c.tsB, false)
	if err != nil {
		return err
	}
	c.oneB, err = c.values(1, c.tsB, c.reachB)
	return err
}

// explore runs the frontier fixpoint for one variable block, optionally
// keeping the per-step frontiers ("onion rings") for trace extraction.
func (c *symChecker) explore(offset int, trs []symbolic.Trans, wantRings bool) (bdd.Ref, []bdd.Ref, error) {
	m := c.m
	init, err := symbolic.InitCubeStride(c.g.Net, m, offset, c.stride)
	if err != nil {
		return bdd.False, nil, err
	}
	reached, frontier := init, init
	var rings []bdd.Ref
	if wantRings {
		rings = append(rings, frontier)
	}
	for frontier != bdd.False {
		if err := c.opts.Budget.Check("prop.reach"); err != nil {
			return reached, rings, err
		}
		c.iters.Inc()
		next := symbolic.Image(m, frontier, trs)
		frontier = m.Diff(next, reached)
		reached = m.Or(reached, next)
		if wantRings && frontier != bdd.False {
			rings = append(rings, frontier)
		}
		if err := c.opts.Budget.CheckNodes(m.Size()); err != nil {
			return reached, rings, err
		}
	}
	return reached, rings, nil
}

// values derives, for every signal, the set of reachable markings where
// the signal is 1. Seeds come from the edge labels (a marking enabling a+
// has a=0, the marking after firing it has a=1); the closure propagates
// values forward and backward through transitions of other signals. A
// signal whose value the edges never determine at the initial state
// defaults to 0 there, matching reach.BuildSG. A marking required to hold
// both values makes the STG inconsistent.
func (c *symChecker) values(offset int, trs []symbolic.Trans, reach bdd.Ref) ([]bdd.Ref, error) {
	m := c.m
	S := len(c.g.Signals)
	one := make([]bdd.Ref, S)
	zero := make([]bdd.Ref, S)
	for s := 0; s < S; s++ {
		one[s], zero[s] = bdd.False, bdd.False
	}
	for t, l := range c.g.Labels {
		if l.Sig < 0 {
			continue
		}
		tr := trs[t]
		en := m.And(reach, tr.Enable)
		img := m.And(m.AndExists(reach, tr.Enable, tr.Touched), tr.Result)
		switch l.Dir {
		case stg.Rise:
			zero[l.Sig] = m.Or(zero[l.Sig], en)
			one[l.Sig] = m.Or(one[l.Sig], img)
		case stg.Fall:
			one[l.Sig] = m.Or(one[l.Sig], en)
			zero[l.Sig] = m.Or(zero[l.Sig], img)
		}
	}
	init, err := symbolic.InitCubeStride(c.g.Net, m, offset, c.stride)
	if err != nil {
		return nil, err
	}
	initVec := make([]bool, c.m.NumVars())
	for p, pl := range c.g.Net.Places {
		initVec[offset+c.stride*p] = pl.Initial > 0
	}
	for s := 0; s < S; s++ {
		if one[s], zero[s], err = c.closeValues(s, trs, reach, one[s], zero[s]); err != nil {
			return nil, err
		}
		if !m.EvalVec(m.Or(one[s], zero[s]), initVec) {
			// No edge pinned the initial value: default to 0.
			zero[s] = m.Or(zero[s], init)
			if one[s], zero[s], err = c.closeValues(s, trs, reach, one[s], zero[s]); err != nil {
				return nil, err
			}
		}
		if m.And(one[s], zero[s]) != bdd.False {
			return nil, fmt.Errorf("prop: STG %s is not consistent: signal %s needs both values in one marking",
				c.g.Name(), c.g.Signals[s].Name)
		}
		if m.Diff(reach, m.Or(one[s], zero[s])) != bdd.False {
			return nil, fmt.Errorf("prop: internal: signal %s value underdetermined", c.g.Signals[s].Name)
		}
	}
	return one, nil
}

// closeValues propagates a signal's One/Zero sets to their fixpoint
// through every transition not labeled with the signal (its own edges are
// fully covered by the seeds).
func (c *symChecker) closeValues(sig int, trs []symbolic.Trans, reach bdd.Ref, one, zero bdd.Ref) (bdd.Ref, bdd.Ref, error) {
	m := c.m
	for {
		if err := c.opts.Budget.Check("prop.fix"); err != nil {
			return one, zero, err
		}
		c.iters.Inc()
		prevOne, prevZero := one, zero
		for t, l := range c.g.Labels {
			if l.Sig == sig {
				continue
			}
			tr := trs[t]
			// Forward: the value survives firing t (images of reachable
			// states stay reachable, no clamp needed).
			one = m.Or(one, m.And(m.AndExists(one, tr.Enable, tr.Touched), tr.Result))
			zero = m.Or(zero, m.And(m.AndExists(zero, tr.Enable, tr.Touched), tr.Result))
			// Backward: the predecessor held the same value. Pre-images
			// can leave the reachable set, so clamp.
			one = m.Or(one, m.And(reach, m.And(tr.Enable, m.AndExists(one, tr.Result, tr.Touched))))
			zero = m.Or(zero, m.And(reach, m.And(tr.Enable, m.AndExists(zero, tr.Result, tr.Touched))))
		}
		if one == prevOne && zero == prevZero {
			return one, zero, nil
		}
		if err := c.opts.Budget.CheckNodes(m.Size()); err != nil {
			return one, zero, err
		}
	}
}

func (c *symChecker) stateCount() *big.Int {
	cnt := c.m.SatCountBig(c.reach)
	return cnt.Rsh(cnt, uint(c.m.NumVars()-c.P))
}

func (c *symChecker) verdict(p Property) (Verdict, error) {
	sat, err := c.sat(p.F)
	if err != nil {
		return Verdict{}, err
	}
	m := c.m
	v := Verdict{Property: p}
	if p.F.Temporal() {
		if m.EvalVec(sat, c.initVec) {
			v.Status = StatusHolds
		} else {
			v.Status = StatusViolated
		}
	} else {
		if m.Diff(c.reach, sat) == bdd.False {
			v.Status = StatusHolds
		} else {
			v.Status = StatusViolated
		}
	}
	var target bdd.Ref = bdd.False
	switch {
	case v.Status == StatusViolated && !p.F.Temporal():
		target = m.Diff(c.reach, sat)
	case v.Status == StatusViolated && p.F.Op == OpAG:
		inner, err := c.sat(p.F.L)
		if err != nil {
			return Verdict{}, err
		}
		target = m.Diff(c.reach, inner)
	case v.Status == StatusHolds && p.F.Op == OpEF:
		inner, err := c.sat(p.F.L)
		if err != nil {
			return Verdict{}, err
		}
		target = inner
	}
	if target != bdd.False {
		tr, err := c.trace(target)
		if err != nil {
			return Verdict{}, err
		}
		v.Trace = tr
	}
	return v, nil
}

// sat computes the characteristic function of the states satisfying f,
// always a subset of the reachable set. Results are memoized per AST node.
func (c *symChecker) sat(f *Formula) (bdd.Ref, error) {
	if r, ok := c.memo[f]; ok {
		return r, nil
	}
	r, err := c.eval(f)
	if err != nil {
		return bdd.False, err
	}
	c.memo[f] = r
	return r, nil
}

func (c *symChecker) eval(f *Formula) (bdd.Ref, error) {
	m := c.m
	switch f.Op {
	case OpTrue:
		return c.reach, nil
	case OpFalse:
		return bdd.False, nil
	case OpSignal:
		return c.one[c.g.SignalIndex(f.Name)], nil
	case OpMarked:
		return m.And(c.reach, m.Var(c.varA(c.placeIndex(f.Name)))), nil
	case OpExcited:
		return m.And(c.reach, c.signalEnabled(c.g.SignalIndex(f.Name), nil, c.ts)), nil
	case OpEnabled:
		dir := f.Dir
		return m.And(c.reach, c.signalEnabled(c.g.SignalIndex(f.Name), &dir, c.ts)), nil
	case OpDeadlock:
		return m.Diff(c.reach, symbolic.SomeEnabled(m, c.ts)), nil
	case OpPersistent:
		sig := -1
		if f.Name != "" {
			sig = c.g.SignalIndex(f.Name)
		}
		return c.persistent(sig), nil
	case OpUSC:
		return c.pairConflicts(false), nil
	case OpCSC:
		return c.pairConflicts(true), nil
	case OpNot:
		l, err := c.sat(f.L)
		if err != nil {
			return bdd.False, err
		}
		return m.Diff(c.reach, l), nil
	case OpAnd, OpOr, OpImplies, OpIff:
		l, err := c.sat(f.L)
		if err != nil {
			return bdd.False, err
		}
		r, err := c.sat(f.R)
		if err != nil {
			return bdd.False, err
		}
		switch f.Op {
		case OpAnd:
			return m.And(l, r), nil
		case OpOr:
			return m.Or(l, r), nil
		case OpImplies:
			return m.Or(m.Diff(c.reach, l), r), nil
		default: // Iff
			return m.Or(m.And(l, r), m.Diff(c.reach, m.Or(l, r))), nil
		}
	case OpEF:
		l, err := c.sat(f.L)
		if err != nil {
			return bdd.False, err
		}
		return c.ef(l)
	case OpAG:
		l, err := c.sat(f.L)
		if err != nil {
			return bdd.False, err
		}
		bad, err := c.ef(m.Diff(c.reach, l))
		if err != nil {
			return bdd.False, err
		}
		return m.Diff(c.reach, bad), nil
	default:
		return bdd.False, fmt.Errorf("prop: internal: unknown op %d", f.Op)
	}
}

// ef is the backward least fixpoint: states with a reachable path into the
// target set.
func (c *symChecker) ef(target bdd.Ref) (bdd.Ref, error) {
	m := c.m
	z := target
	for {
		if err := c.opts.Budget.Check("prop.fix"); err != nil {
			return z, err
		}
		c.iters.Inc()
		pre := bdd.False
		for _, tr := range c.ts {
			pre = m.Or(pre, m.And(tr.Enable, m.AndExists(z, tr.Result, tr.Touched)))
		}
		nz := m.Or(z, m.And(c.reach, pre))
		if nz == z {
			return z, nil
		}
		z = nz
		if err := c.opts.Budget.CheckNodes(m.Size()); err != nil {
			return z, err
		}
	}
}

// signalEnabled builds the enabling condition of a signal's edges (all of
// them, or only those with direction *dir).
func (c *symChecker) signalEnabled(sig int, dir *stg.Dir, trs []symbolic.Trans) bdd.Ref {
	m := c.m
	some := bdd.False
	for _, t := range c.g.TransitionsOf(sig) {
		if dir != nil && c.g.Labels[t].Dir != *dir {
			continue
		}
		some = m.Or(some, trs[t].Enable)
	}
	return some
}

// eventEnabled builds the enabling condition of transition t's event: the
// disjunction over every transition carrying the same label.
func (c *symChecker) eventEnabled(t int, trs []symbolic.Trans) bdd.Ref {
	m := c.m
	some := bdd.False
	for u := range c.g.Labels {
		if c.sameEvent(t, u) {
			some = m.Or(some, trs[u].Enable)
		}
	}
	return some
}

// sameEvent mirrors ts.sameEvent at the net level: signal edges compare by
// (signal, direction), dummies by transition name.
func (c *symChecker) sameEvent(a, b int) bool {
	la, lb := c.g.Labels[a], c.g.Labels[b]
	if la.Sig < 0 || lb.Sig < 0 {
		return c.g.Net.Transitions[a].Name == c.g.Net.Transitions[b].Name
	}
	return la.Sig == lb.Sig && la.Dir == lb.Dir
}

func (c *symChecker) isInput(t int) bool {
	l := c.g.Labels[t]
	return l.Sig >= 0 && c.g.Signals[l.Sig].Kind == stg.Input
}

// persistent computes the states where no enabled event (of the given
// signal, or of any when sig < 0) can be disabled by a different event
// firing, under the Section 2.1 rules: input-input conflicts are the
// environment's choice and allowed; everything else is a violation.
func (c *symChecker) persistent(sig int) bdd.Ref {
	m := c.m
	viol := bdd.False
	for te, le := range c.g.Labels {
		if sig >= 0 && le.Sig != sig {
			continue
		}
		evE := c.eventEnabled(te, c.ts)
		for tu := range c.g.Labels {
			if te == tu || c.sameEvent(te, tu) {
				continue
			}
			if c.isInput(te) && c.isInput(tu) {
				continue
			}
			tr := c.ts[tu]
			// Event e's enabledness in the successor of firing u: the
			// touched places take their post-firing values, the rest are
			// unchanged.
			after := evE
			for i, v := range tr.Touched {
				after = m.Restrict(after, v, tr.PostVal[i])
			}
			viol = m.Or(viol, m.AndN(c.ts[te].Enable, tr.Enable, m.Not(after)))
		}
	}
	return m.Diff(c.reach, viol)
}

// pairConflicts computes the USC (or CSC) conflict states via the doubled
// encoding: block B ranges over a second copy of the reachable markings,
// and a conflict is a pair with equal signal codes but different markings
// (for CSC, additionally differing excitation of some non-input signal).
// Quantifying block B away leaves the conflict states in block A.
func (c *symChecker) pairConflicts(csc bool) bdd.Ref {
	m := c.m
	same := bdd.True
	for s := range c.g.Signals {
		same = m.And(same, m.Not(m.Xor(c.one[s], c.oneB[s])))
	}
	diff := bdd.False
	for p := 0; p < c.P; p++ {
		diff = m.Or(diff, m.Xor(m.Var(c.varA(p)), m.Var(c.varB(p))))
	}
	pair := m.AndN(c.reach, c.reachB, same, diff)
	if csc {
		wit := bdd.False
		for s, sg := range c.g.Signals {
			if sg.Kind != stg.Output && sg.Kind != stg.Internal {
				continue
			}
			wit = m.Or(wit, m.Xor(c.signalEnabled(s, nil, c.ts), c.signalEnabled(s, nil, c.tsB)))
		}
		pair = m.And(pair, wit)
	}
	varsB := make([]int, c.P)
	for p := range varsB {
		varsB[p] = c.varB(p)
	}
	return m.Exists(pair, varsB)
}

func (c *symChecker) placeIndex(name string) int {
	for i, p := range c.g.Net.Places {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// trace replays a minimal firing sequence from the initial marking to a
// target state, using the reachability onion rings: the first ring meeting
// the target fixes the endpoint and its distance, and each backward step
// picks the first transition (in declaration order) with a predecessor in
// the previous ring — fully deterministic for a fixed spec.
func (c *symChecker) trace(target bdd.Ref) (*Trace, error) {
	m := c.m
	ringIdx := -1
	var goal []bool
	for i, ring := range c.rings {
		if x := m.And(ring, target); x != bdd.False {
			goal, _ = m.AnySatVec(x)
			ringIdx = i
			break
		}
	}
	if ringIdx < 0 {
		return nil, nil // target not reachable: no trace
	}
	type bstep struct {
		vec   []bool
		event string
	}
	steps := []bstep{{vec: goal}}
	cur := goal
	for i := ringIdx; i > 0; i-- {
		if err := c.opts.Budget.Check("prop.fix"); err != nil {
			return nil, err
		}
		curCube := c.stateCube(cur)
		found := false
		for t, tr := range c.ts {
			cand := m.AndN(tr.Enable, m.AndExists(curCube, tr.Result, tr.Touched), c.rings[i-1])
			if cand == bdd.False {
				continue
			}
			prev, _ := m.AnySatVec(cand)
			steps[len(steps)-1].event = c.g.Net.Transitions[t].Name
			steps = append(steps, bstep{vec: prev})
			cur = prev
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("prop: internal: trace reconstruction lost the path at ring %d", i)
		}
	}
	tr := &Trace{Signals: append([]stg.Signal(nil), c.g.Signals...), Places: c.placeNames()}
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		marking := make([]bool, c.P)
		for p := 0; p < c.P; p++ {
			marking[p] = st.vec[c.varA(p)]
		}
		step := Step{Event: st.event, Marking: marking}
		var code ts.Code
		for s := range c.g.Signals {
			if m.EvalVec(c.one[s], st.vec) {
				code = code.Set(s, true)
			}
		}
		step.Code = code
		tr.Steps = append(tr.Steps, step)
	}
	return tr, nil
}

// stateCube pins every block-A variable to the given state's value.
func (c *symChecker) stateCube(vec []bool) bdd.Ref {
	vars := make([]int, c.P)
	pols := make([]bool, c.P)
	for p := 0; p < c.P; p++ {
		vars[p] = c.varA(p)
		pols[p] = vec[c.varA(p)]
	}
	return c.m.Cube(vars, pols)
}

func (c *symChecker) placeNames() []string {
	names := make([]string, len(c.g.Net.Places))
	for i, p := range c.g.Net.Places {
		names[i] = p.Name
	}
	return names
}
