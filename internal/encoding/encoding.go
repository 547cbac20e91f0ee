// Package encoding solves the state encoding problem (Sections 2.1 and 3.1):
// when two reachable states share a binary code but imply different values of
// some non-input signal, the next-state functions are ill-defined. The two
// methods presented in the paper are implemented:
//
//  1. inserting an additional internal state signal whose value
//     distinguishes the conflicting states (Figure 7), and
//  2. concurrency reduction: delaying a non-input transition so that the
//     conflicting state disappears from the specification.
package encoding

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// InsertSignal clones g and inserts a new internal signal whose rising
// transition fires immediately before transition riseBefore and whose
// falling transition fires immediately before fallBefore (both indexes into
// g.Net.Transitions). The new transition takes over all input places of the
// target transition and a fresh place sequences it before the target — the
// "insert right before" construction of Section 2.1.
func InsertSignal(g *stg.STG, name string, riseBefore, fallBefore int) (*stg.STG, error) {
	if riseBefore == fallBefore {
		return nil, fmt.Errorf("encoding: rise and fall insertion points must differ")
	}
	nT := len(g.Net.Transitions)
	if riseBefore < 0 || riseBefore >= nT || fallBefore < 0 || fallBefore >= nT {
		return nil, fmt.Errorf("encoding: insertion point out of range")
	}
	c := g.Clone()
	sig := c.AddSignal(name, stg.Internal)
	insertBefore(c, sig, stg.Rise, riseBefore)
	insertBefore(c, sig, stg.Fall, fallBefore)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("encoding: insertion produced invalid STG: %w", err)
	}
	return c, nil
}

// insertBefore splices a new transition of (sig,dir) in front of target.
func insertBefore(c *stg.STG, sig int, dir stg.Dir, target int) {
	tNew := c.AddTransition(sig, dir)
	net := c.Net
	// The new transition inherits the target's preset.
	net.Transitions[tNew].Pre = append([]int(nil), net.Transitions[target].Pre...)
	for _, p := range net.Transitions[target].Pre {
		for i, t := range net.Places[p].Post {
			if t == target {
				net.Places[p].Post[i] = tNew
			}
		}
	}
	net.Transitions[target].Pre = nil
	net.Implicit(tNew, target, 0)
}

// insertAfter splices a new transition of (sig,dir) right after target: the
// new transition takes over the target's postset and a fresh place sequences
// target before it.
func insertAfter(c *stg.STG, sig int, dir stg.Dir, target int) {
	tNew := c.AddTransition(sig, dir)
	net := c.Net
	net.Transitions[tNew].Post = append([]int(nil), net.Transitions[target].Post...)
	for _, p := range net.Transitions[target].Post {
		for i, t := range net.Places[p].Pre {
			if t == target {
				net.Places[p].Pre[i] = tNew
			}
		}
	}
	net.Transitions[target].Post = nil
	net.Implicit(target, tNew, 0)
}

// Point is an insertion point for a new signal transition.
type Point struct {
	// Before selects insertion in front of (true) or after (false) Trans.
	Before bool
	Trans  int
}

func (p Point) describe(g *stg.STG) string {
	side := "after"
	if p.Before {
		side = "before"
	}
	return side + " " + g.Net.Transitions[p.Trans].Name
}

// InsertSignalAt clones g and inserts a new internal signal with its rising
// transition at rise and falling transition at fall.
func InsertSignalAt(g *stg.STG, name string, rise, fall Point) (*stg.STG, error) {
	nT := len(g.Net.Transitions)
	if rise.Trans < 0 || rise.Trans >= nT || fall.Trans < 0 || fall.Trans >= nT {
		return nil, fmt.Errorf("encoding: insertion point out of range")
	}
	if rise == fall {
		return nil, fmt.Errorf("encoding: rise and fall insertion points must differ")
	}
	c := g.Clone()
	sig := c.AddSignal(name, stg.Internal)
	apply := func(pt Point, dir stg.Dir) {
		if pt.Before {
			insertBefore(c, sig, dir, pt.Trans)
		} else {
			insertAfter(c, sig, dir, pt.Trans)
		}
	}
	apply(rise, stg.Rise)
	apply(fall, stg.Fall)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("encoding: insertion produced invalid STG: %w", err)
	}
	return c, nil
}

// DelayTransition clones g and adds an ordering constraint: transition
// `delayed` cannot fire until transition `until` has fired (a fresh unmarked
// place from `until` to `delayed`). This is the concurrency-reduction method;
// it must only be applied to non-input transitions ("delaying input signals
// is not allowed" for compositional reasons), which is enforced here.
func DelayTransition(g *stg.STG, delayed, until int) (*stg.STG, error) {
	if g.IsInput(delayed) {
		return nil, fmt.Errorf("encoding: cannot delay input transition %s",
			g.Net.Transitions[delayed].Name)
	}
	c := g.Clone()
	c.Net.Implicit(until, delayed, 0)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Solution is one successful CSC resolution.
type Solution struct {
	STG *stg.STG
	SG  *ts.SG
	// Description says what was done, e.g. "insert csc0: + before LDS+, - before D-".
	Description string
	// Literals is the complex-gate literal cost, the selection metric.
	Literals int
}

// unsolvedLiteralCost is the literal cost carried by candidates that reduce
// but do not eliminate the CSC conflicts. The ranking key is (conflicts,
// literals, enumeration order), so this sentinel only breaks ties among
// still-unsolved candidates against solved ones at the same conflict count —
// a situation that cannot arise (solved means zero conflicts) — while
// keeping the cost field a plain int. It merely has to dwarf every real
// cover cost without overflowing additions.
const unsolvedLiteralCost = 1 << 29

// SolveCSC resolves all CSC conflicts of g by inserting internal state
// signals. It searches insertion-point pairs around non-input transitions
// (inputs must stay untouched), validates every candidate against the full
// implementability suite (consistency, CSC, persistency, deadlock freedom),
// and returns the valid solution with minimal complex-gate literal cost.
// Up to maxSignals signals are inserted (each named csc0, csc1, ...).
func SolveCSC(g *stg.STG, maxSignals int) (*Solution, error) {
	return SolveCSCOpts(g, maxSignals, Options{})
}

// SolveCSCOpts is SolveCSC with explicit solver options.
func SolveCSCOpts(g *stg.STG, maxSignals int, opts Options) (*Solution, error) {
	sols, err := SolutionsOpts(g, maxSignals, 1, opts)
	if err != nil {
		return nil, err
	}
	return sols[0], nil
}

func describeInsertion(g *stg.STG, name string, r, f Point) string {
	return fmt.Sprintf("insert %s: + %s, - %s", name, r.describe(g), f.describe(g))
}

// rankedInsertions tries every (rise, fall) pair of insertion points around
// non-input transitions and returns the property-preserving candidates that
// reduce the conflict count, ranked by (conflicts, literal cost, order).
func rankedInsertions(g *stg.STG, name string, limit int, ctx *evalCtx) ([]*Solution, error) {
	baseSG, err := ctx.buildSG(g)
	if err != nil {
		return nil, err
	}
	baseConflicts := len(baseSG.CSCConflicts())

	var points []Point
	for t := range g.Net.Transitions {
		if !g.IsInput(t) && g.Labels[t].Sig >= 0 {
			points = append(points, Point{Before: true, Trans: t}, Point{Before: false, Trans: t})
		}
	}
	var pairs []insPair
	order := 0
	for _, r := range points {
		for _, f := range points {
			if r == f {
				continue
			}
			order++
			pairs = append(pairs, insPair{r: r, f: f, order: order})
		}
	}
	all, err := evalPairs(g, name, pairs, baseConflicts, ctx)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no property-preserving insertion found for %s", name)
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i].key, all[j].key) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]*Solution, len(all))
	for i, s := range all {
		out[i] = s.sol
		if out[i].SG == nil {
			// Memo-hit survivor of the ranked cut: build its own SG now.
			// Its isomorphic twin built fine, so this cannot fail.
			sg, err := ctx.buildSG(out[i].STG)
			if err != nil {
				return nil, fmt.Errorf("encoding: rebuilding memoized candidate: %w", err)
			}
			out[i].SG = sg
		}
	}
	return out, nil
}

func less(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Solutions returns up to limit complete CSC solutions (single greedy path
// per ranked first insertion), cheapest first by final complex-gate literal
// cost. Callers that need to iterate (e.g. technology mapping retries) use
// this instead of SolveCSC.
func Solutions(g *stg.STG, maxSignals, limit int) ([]*Solution, error) {
	return SolutionsOpts(g, maxSignals, limit, Options{})
}

// SolutionsOpts is Solutions with explicit solver options. The returned
// solution list — descriptions, literal costs and order — is identical at
// every Options.Workers value.
func SolutionsOpts(g *stg.STG, maxSignals, limit int, opts Options) ([]*Solution, error) {
	if limit <= 0 {
		limit = 5
	}
	ctx := newEvalCtx(opts)
	out, err := firstRound(g, maxSignals, limit, ctx)
	ctx.finish(err)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Literals < out[j].Literals })
	return out, nil
}

func firstRound(g *stg.STG, maxSignals, limit int, ctx *evalCtx) ([]*Solution, error) {
	sg, err := ctx.buildSG(g)
	if err != nil {
		return nil, err
	}
	if sg.HasCSC() {
		lits, err := complexLiterals(sg)
		if err != nil {
			return nil, err
		}
		return []*Solution{{STG: g, SG: sg, Literals: lits}}, nil
	}
	if maxSignals <= 0 {
		maxSignals = 3
	}
	ranked, err := rankedInsertions(g, "csc0", limit*2, ctx)
	if err != nil {
		return nil, err
	}
	var out []*Solution
	for _, cand := range ranked {
		if len(out) >= limit {
			break
		}
		if cand.SG.HasCSC() {
			out = append(out, cand)
			continue
		}
		// Greedy continuation for multi-signal cases.
		sol, err := continueGreedy(cand, maxSignals-1, ctx)
		if err == nil {
			out = append(out, sol)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("encoding: CSC not solved within %d signal insertions", maxSignals)
	}
	return out, nil
}

func continueGreedy(start *Solution, rounds int, ctx *evalCtx) (*Solution, error) {
	cur := start
	for i := 0; i < rounds; i++ {
		if cur.SG.HasCSC() {
			return cur, nil
		}
		ranked, err := rankedInsertions(cur.STG, fmt.Sprintf("csc%d", i+1), 1, ctx)
		if err != nil {
			return nil, err
		}
		next := ranked[0]
		next.Description = cur.Description + "; " + next.Description
		cur = next
	}
	if !cur.SG.HasCSC() {
		return nil, fmt.Errorf("encoding: CSC not solved")
	}
	return cur, nil
}

// SolveByReduction resolves CSC conflicts with the paper's second method:
// concurrency reduction — delaying a non-input transition until another
// transition has fired, so that the conflicting states disappear from the
// specification. It searches (delayed, until) pairs of transitions, keeps
// property-preserving candidates that reduce the conflict count, and greedily
// iterates up to maxOrders added orderings. Unlike signal insertion this can
// fail on specs whose conflicts are not caused by concurrency.
func SolveByReduction(g *stg.STG, maxOrders int) (*Solution, error) {
	if maxOrders <= 0 {
		maxOrders = 3
	}
	ctx := newEvalCtx(Options{})
	cur := g
	desc := ""
	for round := 0; round < maxOrders+1; round++ {
		sg, err := ctx.buildSG(cur)
		if err != nil {
			return nil, err
		}
		if sg.HasCSC() {
			lits, err := complexLiterals(sg)
			if err != nil {
				return nil, err
			}
			return &Solution{STG: cur, SG: sg, Description: desc, Literals: lits}, nil
		}
		if round == maxOrders {
			break
		}
		best, bestDesc, err := bestReduction(cur, len(sg.CSCConflicts()), ctx.arena)
		if err != nil {
			return nil, fmt.Errorf("encoding: reduction round %d: %w", round, err)
		}
		cur = best
		if desc != "" {
			desc += "; "
		}
		desc += bestDesc
	}
	return nil, fmt.Errorf("encoding: CSC not solved within %d concurrency reductions", maxOrders)
}

// bestReduction scores every (delayed, until) ordering of g with the same
// evaluator as signal insertion and returns the best by (conflicts,
// literals, enumeration order).
func bestReduction(g *stg.STG, baseConflicts int, ar *reach.Arena) (*stg.STG, string, error) {
	type cand struct {
		g    *stg.STG
		desc string
		key  [3]int
	}
	var best *cand
	order := 0
	for delayed := range g.Net.Transitions {
		if g.IsInput(delayed) || g.Labels[delayed].Sig < 0 {
			continue
		}
		for until := range g.Net.Transitions {
			if until == delayed {
				continue
			}
			order++
			c, err := DelayTransition(g, delayed, until)
			if err != nil {
				continue
			}
			_, m := evaluateCandidate(c, baseConflicts, ar)
			if !m.ok {
				continue
			}
			key := [3]int{m.conflicts, m.lits, order}
			if best == nil || less(key, best.key) {
				best = &cand{
					g: c,
					desc: fmt.Sprintf("delay %s until %s",
						g.Net.Transitions[delayed].Name, g.Net.Transitions[until].Name),
					key: key,
				}
			}
		}
	}
	if best == nil {
		return nil, "", fmt.Errorf("no property-preserving reduction found")
	}
	return best.g, best.desc, nil
}

func complexLiterals(sg *ts.SG) (int, error) {
	fs, err := logic.DeriveAll(sg)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range fs {
		n += f.Cover.Literals()
	}
	return n, nil
}

// ConflictSummary renders the CSC conflicts of an SG for diagnostics.
func ConflictSummary(sg *ts.SG) string {
	confl := sg.CSCConflicts()
	if len(confl) == 0 {
		return "CSC satisfied"
	}
	var lines []string
	for _, c := range confl {
		lines = append(lines, fmt.Sprintf("code %s: states %s and %s (signal %s)",
			c.Code.String(len(sg.Signals)),
			sg.States[c.A].Label, sg.States[c.B].Label,
			sg.Signals[c.Signal].Name))
	}
	sort.Strings(lines)
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}
