package prop

import (
	"errors"
	"math/big"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// checkExplicit evaluates properties over the enumerated state graph:
// every subformula denotes a bit vector over the states, EF is a backward
// breadth-first reachability pass. The graph itself is built by
// reach.BuildSG, so consistency is established (or refuted) before any
// property runs.
func checkExplicit(g *stg.STG, props []Property, opts Options, sp *obs.Span) (*Report, error) {
	sg, err := reach.BuildSG(g, reach.Options{Budget: opts.Budget, Obs: sp})
	if err != nil {
		if isBudget(err) {
			return unknownReport(string(EngineExplicit), props), err
		}
		return nil, err
	}
	c := &expChecker{
		g:      g,
		sg:     sg,
		bgt:    opts.Budget,
		hooked: opts.Budget.Hooked(),
		memo:   map[*Formula][]bool{},
	}
	rep := unknownReport(string(EngineExplicit), props)
	rep.States = big.NewInt(int64(len(sg.States)))
	for i, p := range props {
		v, err := c.verdict(p)
		if err != nil {
			return rep, err
		}
		rep.Verdicts[i] = v
	}
	return rep, nil
}

// isBudget reports whether err belongs to the budget taxonomy — the cases
// where a partial all-unknown report is still meaningful.
func isBudget(err error) bool {
	var le budget.ErrLimit
	return errors.Is(err, budget.ErrCanceled) || errors.As(err, &le)
}

type expChecker struct {
	g      *stg.STG
	sg     *ts.SG
	bgt    *budget.Budget
	hooked bool
	memo   map[*Formula][]bool

	in     [][]ts.Arc // reverse adjacency, built on first EF
	placeI map[string]int
	viols  []ts.PersistencyViolation
	haveV  bool
}

// check amortizes budget polling over state loops.
func (c *expChecker) check(i int) error {
	if c.hooked || i%budget.CheckEvery == 0 {
		return c.bgt.Check("prop.explicit")
	}
	return nil
}

func (c *expChecker) verdict(p Property) (Verdict, error) {
	sat, err := c.sat(p.F)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Property: p}
	if p.F.Temporal() {
		if sat[c.sg.Initial] {
			v.Status = StatusHolds
		} else {
			v.Status = StatusViolated
		}
	} else {
		// Implicit invariant: AG f.
		v.Status = StatusHolds
		for i := range sat {
			if !sat[i] {
				v.Status = StatusViolated
				break
			}
		}
	}
	if err := c.attachTrace(&v); err != nil {
		return Verdict{}, err
	}
	return v, nil
}

// attachTrace adds a counterexample for violated invariants/AGs (shortest
// path to an offending state) or a witness for holding top-level EFs
// (shortest path to a satisfying state).
func (c *expChecker) attachTrace(v *Verdict) error {
	f := v.Property.F
	var target []bool
	switch {
	case v.Status == StatusViolated && !f.Temporal():
		sat, err := c.sat(f)
		if err != nil {
			return err
		}
		target = negate(sat)
	case v.Status == StatusViolated && f.Op == OpAG:
		sat, err := c.sat(f.L)
		if err != nil {
			return err
		}
		target = negate(sat)
	case v.Status == StatusHolds && f.Op == OpEF:
		sat, err := c.sat(f.L)
		if err != nil {
			return err
		}
		target = sat
	default:
		return nil
	}
	tr, err := c.trace(target)
	if err != nil {
		return err
	}
	v.Trace = tr
	return nil
}

func negate(v []bool) []bool {
	out := make([]bool, len(v))
	for i, b := range v {
		out[i] = !b
	}
	return out
}

// sat computes the set of states satisfying f as a bit vector. Results are
// memoized per AST node: trace extraction revisits subformulas.
func (c *expChecker) sat(f *Formula) ([]bool, error) {
	if v, ok := c.memo[f]; ok {
		return v, nil
	}
	v, err := c.eval(f)
	if err != nil {
		return nil, err
	}
	c.memo[f] = v
	return v, nil
}

func (c *expChecker) eval(f *Formula) ([]bool, error) {
	n := len(c.sg.States)
	out := make([]bool, n)
	switch f.Op {
	case OpTrue:
		for i := range out {
			out[i] = true
		}
	case OpFalse:
		// all false
	case OpSignal:
		sig := c.g.SignalIndex(f.Name)
		for i, st := range c.sg.States {
			if err := c.check(i); err != nil {
				return nil, err
			}
			out[i] = st.Code.Bit(sig)
		}
	case OpMarked:
		p := c.placeIndex(f.Name)
		for i, st := range c.sg.States {
			if err := c.check(i); err != nil {
				return nil, err
			}
			out[i] = petri.KeyMarked(st.Key, p)
		}
	case OpExcited:
		sig := c.g.SignalIndex(f.Name)
		for i := range c.sg.States {
			if err := c.check(i); err != nil {
				return nil, err
			}
			_, out[i] = c.sg.Excited(i, sig)
		}
	case OpEnabled:
		sig := c.g.SignalIndex(f.Name)
		for i, arcs := range c.sg.Out {
			if err := c.check(i); err != nil {
				return nil, err
			}
			for _, a := range arcs {
				if a.Event.Sig == sig && a.Event.Dir == f.Dir {
					out[i] = true
					break
				}
			}
		}
	case OpDeadlock:
		for i, arcs := range c.sg.Out {
			out[i] = len(arcs) == 0
		}
	case OpPersistent:
		sig := -1
		if f.Name != "" {
			sig = c.g.SignalIndex(f.Name)
		}
		for i := range out {
			out[i] = true
		}
		for _, viol := range c.violations() {
			if sig < 0 || viol.Disabled.Sig == sig {
				out[viol.State] = false
			}
		}
	case OpUSC:
		for _, grp := range c.sg.StatesByCode() {
			if len(grp) < 2 {
				continue
			}
			for _, s := range grp {
				out[s] = true
			}
		}
	case OpCSC:
		for _, cf := range c.sg.CSCConflicts() {
			out[cf.A] = true
			out[cf.B] = true
		}
	case OpNot:
		l, err := c.sat(f.L)
		if err != nil {
			return nil, err
		}
		return negate(l), nil
	case OpAnd, OpOr, OpImplies, OpIff:
		l, err := c.sat(f.L)
		if err != nil {
			return nil, err
		}
		r, err := c.sat(f.R)
		if err != nil {
			return nil, err
		}
		for i := range out {
			switch f.Op {
			case OpAnd:
				out[i] = l[i] && r[i]
			case OpOr:
				out[i] = l[i] || r[i]
			case OpImplies:
				out[i] = !l[i] || r[i]
			default:
				out[i] = l[i] == r[i]
			}
		}
	case OpEF:
		l, err := c.sat(f.L)
		if err != nil {
			return nil, err
		}
		return c.ef(l)
	case OpAG:
		// AG g = ¬EF ¬g.
		l, err := c.sat(f.L)
		if err != nil {
			return nil, err
		}
		bad, err := c.ef(negate(l))
		if err != nil {
			return nil, err
		}
		return negate(bad), nil
	}
	return out, nil
}

// ef computes backward reachability: states with a path into the target
// set (including the target states themselves).
func (c *expChecker) ef(target []bool) ([]bool, error) {
	if c.in == nil {
		c.in = c.sg.In()
	}
	out := make([]bool, len(target))
	var queue []int
	for s, t := range target {
		if t {
			out[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		if c.hooked || head%budget.CheckEvery == 0 {
			if err := c.bgt.Check("prop.fix"); err != nil {
				return nil, err
			}
		}
		for _, a := range c.in[queue[head]] {
			if !out[a.To] { // In() stores the source state in To
				out[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	return out, nil
}

// trace finds the shortest firing sequence from the initial state to a
// target state (breadth-first, arcs in declaration order, so the result is
// deterministic).
func (c *expChecker) trace(target []bool) (*Trace, error) {
	n := len(c.sg.States)
	prevState := make([]int, n)
	prevArc := make([]ts.Arc, n)
	seen := make([]bool, n)
	init := c.sg.Initial
	seen[init] = true
	queue := []int{init}
	goal := -1
	if target[init] {
		goal = init
	}
	for head := 0; head < len(queue) && goal < 0; head++ {
		if c.hooked || head%budget.CheckEvery == 0 {
			if err := c.bgt.Check("prop.explicit"); err != nil {
				return nil, err
			}
		}
		s := queue[head]
		for _, a := range c.sg.Out[s] {
			if seen[a.To] {
				continue
			}
			seen[a.To] = true
			prevState[a.To] = s
			prevArc[a.To] = ts.Arc{Event: a.Event, To: a.To}
			if target[a.To] {
				goal = a.To
				break
			}
			queue = append(queue, a.To)
		}
	}
	if goal < 0 {
		return nil, nil // target unreachable — no trace
	}
	var rev []int
	for s := goal; ; s = prevState[s] {
		rev = append(rev, s)
		if s == init {
			break
		}
	}
	tr := &Trace{Signals: c.sg.Signals, Places: c.placeNames()}
	numP := len(c.g.Net.Places)
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		step := Step{Code: c.sg.States[s].Code, Marking: make([]bool, numP)}
		for p := range step.Marking {
			step.Marking[p] = petri.KeyMarked(c.sg.States[s].Key, p)
		}
		if s != init {
			step.Event = prevArc[s].Event.Name
		}
		tr.Steps = append(tr.Steps, step)
	}
	return tr, nil
}

func (c *expChecker) placeNames() []string {
	names := make([]string, len(c.g.Net.Places))
	for i, p := range c.g.Net.Places {
		names[i] = p.Name
	}
	return names
}

func (c *expChecker) placeIndex(name string) int {
	if c.placeI == nil {
		c.placeI = map[string]int{}
		for i, p := range c.g.Net.Places {
			c.placeI[p.Name] = i
		}
	}
	return c.placeI[name]
}

func (c *expChecker) violations() []ts.PersistencyViolation {
	if !c.haveV {
		c.viols = c.sg.PersistencyViolations()
		c.haveV = true
	}
	return c.viols
}
