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
	"errors"
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
// g.Net.Transitions) — the "insert right before" construction of Section
// 2.1: InsertSignalAt with two "before" points.
func InsertSignal(g *stg.STG, name string, riseBefore, fallBefore int) (*stg.STG, error) {
	return InsertSignalAt(g, name, Point{Before: true, Trans: riseBefore}, Point{Before: true, Trans: fallBefore})
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
	// raw is SG before dummy contraction and trans[s][k] the net
	// transition of raw's arc Out[s][k]: what a ranking round on STG
	// reads. explore sets both.
	raw   *ts.SG
	trans [][]int
}

// explore builds g's state graph the one way the insertion search builds
// every graph — reach.BuildSGTrans, then dummy contraction — into a
// Solution that can base a ranking round.
func explore(g *stg.STG, opts reach.Options) (*Solution, error) {
	raw, trans, err := reach.BuildSGTrans(g, opts)
	if err != nil {
		return nil, err
	}
	sg, err := ts.ContractDummies(raw)
	if err != nil {
		return nil, err
	}
	return &Solution{STG: g, SG: sg, raw: raw, trans: trans}, nil
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
	sols, err := SolutionsOpts(g, maxSignals, 1, Options{})
	if err != nil {
		return nil, err
	}
	return sols[0], nil
}

func describeInsertion(g *stg.STG, name string, r, f Point) string {
	return fmt.Sprintf("insert %s: + %s, - %s", name, r.describe(g), f.describe(g))
}

// rankedInsertions tries every (rise, fall) pair of insertion points around
// non-input transitions of base's STG and returns the property-preserving
// candidates that reduce the conflict count, ranked by (conflicts, literal
// cost, order), each with its Solution. A survivor that evalPairs has not
// built already — one that leaves conflicts, or a solved pair its class's
// representative stands for — is rebuilt now.
func rankedInsertions(base *Solution, name string, limit int, ctx *evalCtx) ([]scored, error) {
	all, err := scoreInsertions(base, name, limit, ctx)
	if err != nil {
		return nil, err
	}
	for i := range all {
		s := &all[i]
		if s.sol != nil {
			continue
		}
		if s.sol, err = ctx.rebuild(base.STG, name, s.pair, s.key[0], reach.Options{Budget: ctx.bgt}); err != nil {
			return nil, err
		}
		s.sol.Literals = s.key[1]
	}
	return all, nil
}

// scoreInsertions scores every insertion pair of the ranking round on base
// and returns the property-preserving candidates that reduce the conflict
// count, sorted by their (conflicts, literals, order) key: the first limit
// of them, or all when limit is 0. A continuation round keeps one, the
// least key, which it takes in one pass: order is unique, so no two keys
// tie.
func scoreInsertions(base *Solution, name string, limit int, ctx *evalCtx) ([]scored, error) {
	pr, pairs, err := newRound(base, name)
	if err != nil {
		return nil, err
	}
	all, err := evalPairs(base.STG, name, pr, pairs, ctx)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%w for %s", errNoInsertion, name)
	}
	if limit == 1 {
		best := 0
		for i := range all {
			if less(all[i].key, all[best].key) {
				best = i
			}
		}
		return all[best : best+1], nil
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i].key, all[j].key) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// newRound prepares the ranking round inserting signal name into base's
// STG: the product of base's state graph and every ordered pair of
// distinct (rise, fall) insertion points around non-input transitions,
// each pair with the first pair of its class of isomorphic insertions
// (pointClasses). It explores nothing: base carries its graph.
func newRound(base *Solution, name string) (*product, []insPair, error) {
	g := base.STG
	if g.SignalIndex(name) >= 0 {
		return nil, nil, fmt.Errorf("encoding: %s already names a signal of %s", name, g.Name())
	}
	points := make([]Point, 0, 2*len(g.Net.Transitions))
	for t := range g.Net.Transitions {
		if !g.IsInput(t) && g.Labels[t].Sig >= 0 {
			points = append(points, Point{Before: true, Trans: t}, Point{Before: false, Trans: t})
		}
	}
	// Pairs (r, f) and (r', f') share a class when r ≡ r' and f ≡ f'; a
	// pair whose two points share one class is a class of its own.
	cls := pointClasses(g, points)
	n := len(points)
	first := make([]int, n*n) // 1 + the first pair of each (rise, fall) class
	pairs := make([]insPair, 0, n*(n-1))
	for ri, r := range points {
		for fi, f := range points {
			if ri == fi {
				continue
			}
			i := len(pairs)
			rep := i
			if cr, cf := cls[ri], cls[fi]; cr != cf {
				if first[cr*n+cf] == 0 {
					first[cr*n+cf] = i + 1
				}
				rep = first[cr*n+cf] - 1
			}
			pairs = append(pairs, insPair{r: r, f: f, order: i + 1, rep: rep})
		}
	}
	return newProduct(g, base.raw, base.trans, name, len(base.SG.CSCConflicts())), pairs, nil
}

func less(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SolutionsOpts returns up to limit complete CSC solutions (single greedy
// path per ranked first insertion), cheapest first by final complex-gate
// literal cost. Callers that need to iterate (e.g. technology mapping
// retries) use this instead of SolveCSC. The returned solution list —
// descriptions, literal costs and order — is identical at every
// Options.Workers value.
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

// errNoInsertion and errUnsolved are the two ways a greedy continuation
// runs out of insertions: a round keeps no candidate, or CSC still fails
// after the last round. firstRound moves on to the next survivor after
// either; every other error ends the search.
var (
	errNoInsertion = errors.New("no property-preserving insertion found")
	errUnsolved    = errors.New("encoding: CSC not solved")
)

// firstRound explores g once — a spec that has CSC is its own solution —
// then ranks the first insertions on that graph and completes up to limit
// of them greedily. A survivor whose pair shares its class (pointClasses)
// with one that already ran out of insertions is skipped: pairs of one
// class build the same net up to place names, with the same transitions
// under the same names and indexes. Every later round — product
// exploration, blocked sets, conflict counts, literal costs and
// enumeration order — depends only on transitions, so the twin's
// continuation would pick the same pairs and run out the same way. Solved
// continuations are not memoized: each Solution carries its own STG.
func firstRound(g *stg.STG, maxSignals, limit int, ctx *evalCtx) ([]*Solution, error) {
	base, err := explore(g, reach.Options{Budget: ctx.bgt})
	if err != nil {
		return nil, err
	}
	if base.SG.HasCSC() {
		if base.Literals, err = complexLiterals(base.SG); err != nil {
			return nil, err
		}
		return []*Solution{base}, nil
	}
	if maxSignals <= 0 {
		maxSignals = 3
	}
	ranked, err := rankedInsertions(base, "csc0", limit*2, ctx)
	if err != nil {
		return nil, err
	}
	var out []*Solution
	exhausted := make(map[int]bool) // the classes of exhausted survivors
	for _, s := range ranked {
		if len(out) >= limit {
			break
		}
		if s.sol.SG.HasCSC() {
			out = append(out, s.sol)
			continue
		}
		// Greedy continuation for multi-signal cases.
		if exhausted[s.pair.rep] {
			ctx.twinSkips.Inc()
			continue
		}
		sol, err := continueGreedy(s.sol, maxSignals-1, ctx)
		switch {
		case err == nil:
			out = append(out, sol)
		case errors.Is(err, errNoInsertion), errors.Is(err, errUnsolved):
			exhausted[s.pair.rep] = true
		default:
			return nil, err
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
		ranked, err := rankedInsertions(cur, fmt.Sprintf("csc%d", i+1), 1, ctx)
		if err != nil {
			return nil, err
		}
		next := ranked[0].sol
		next.Description = cur.Description + "; " + next.Description
		cur = next
	}
	if !cur.SG.HasCSC() {
		return nil, errUnsolved
	}
	return cur, nil
}

// SolveByReduction resolves CSC conflicts with the paper's second method:
// concurrency reduction — delaying a non-input transition until another
// transition has fired, so that the conflicting states disappear from the
// specification. Each round scores every (delayed, until) ordering across
// the worker pool and keeps the property-preserving one with the least
// (conflicts, literals, enumeration order) key, so the solution is the same
// at every Options.Workers value. Up to maxOrders orderings (default 3) are
// added. Unlike signal insertion this can fail on specs whose conflicts are
// not caused by concurrency.
func SolveByReduction(g *stg.STG, maxOrders int, opts Options) (sol *Solution, err error) {
	if maxOrders <= 0 {
		maxOrders = 3
	}
	ctx := newEvalCtx(opts)
	defer func() { ctx.finish(err) }()
	if sol, err = explore(g, reach.Options{Budget: ctx.bgt}); err != nil {
		return nil, err
	}
	for round := 0; !sol.SG.HasCSC(); round++ {
		if round == maxOrders {
			return nil, fmt.Errorf("encoding: CSC not solved within %d concurrency reductions", maxOrders)
		}
		next, err := bestReduction(sol.STG, len(sol.SG.CSCConflicts()), ctx)
		if err != nil {
			return nil, fmt.Errorf("encoding: reduction round %d: %w", round, err)
		}
		if sol.Description != "" {
			next.Description = sol.Description + "; " + next.Description
		}
		sol = next
	}
	if sol.Literals, err = complexLiterals(sol.SG); err != nil {
		return nil, err
	}
	return sol, nil
}

// bestReduction returns the accepted ordering of g with the least
// (conflicts, literals, enumeration order) key.
func bestReduction(g *stg.STG, baseConflicts int, ctx *evalCtx) (*Solution, error) {
	all, err := scoreReductions(g, baseConflicts, ctx)
	if err != nil {
		return nil, err
	}
	var best *Solution
	var bestKey [3]int
	for i, r := range all {
		if r.sol == nil {
			continue
		}
		if key := [3]int{r.v.conflicts, r.sol.Literals, i}; best == nil || less(key, bestKey) {
			best, bestKey = r.sol, key
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no property-preserving reduction found")
	}
	return best, nil
}

// reduction is one scored ordering: its description and verdict and, when
// accepted, the candidate solution, whose literal cost is
// unsolvedLiteralCost while conflicts remain.
type reduction struct {
	desc string
	v    verdict
	sol  *Solution
}

// scoreReductions scores every (delayed, until) ordering of g, each
// non-input signal transition delayed until any other transition, across
// the worker pool. Each ordering is built by DelayTransition, explored by
// evaluateCandidate without the budget (the pool polls it once per
// ordering) and, when it solves CSC, costed in literals. Results land in a
// slot per ordering, in enumeration order at any worker count.
func scoreReductions(g *stg.STG, baseConflicts int, ctx *evalCtx) ([]reduction, error) {
	var pairs [][2]int
	for delayed := range g.Net.Transitions {
		if g.IsInput(delayed) || g.Labels[delayed].Sig < 0 {
			continue
		}
		for until := range g.Net.Transitions {
			if until != delayed {
				pairs = append(pairs, [2]int{delayed, until})
			}
		}
	}
	all := make([]reduction, len(pairs))
	err := ctx.runPool(len(pairs), func(_ *productScratch, i int) error {
		delayed, until := pairs[i][0], pairs[i][1]
		r := &all[i]
		r.desc = fmt.Sprintf("delay %s until %s", g.Net.Transitions[delayed].Name, g.Net.Transitions[until].Name)
		cand, err := DelayTransition(g, delayed, until)
		if err != nil {
			r.v.reason = rejectInvalid
			return nil
		}
		sg, v := evaluateCandidate(cand, baseConflicts, reach.Options{})
		if r.v = v; v.reason != none {
			return nil
		}
		r.sol = &Solution{STG: cand, SG: sg, Description: r.desc, Literals: unsolvedLiteralCost}
		if v.conflicts == 0 {
			if r.sol.Literals, err = complexLiterals(sg); err != nil {
				return fmt.Errorf("encoding: costing %s: %w", r.desc, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.candidates.Add(int64(len(all)))
	ctx.rebuilt.Add(int64(len(all)))
	for _, r := range all {
		ctx.rejected[r.v.reason].Inc()
		if r.sol != nil && r.v.conflicts == 0 {
			ctx.costed.Inc()
		}
	}
	return all, nil
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
			sg.Label(c.A), sg.Label(c.B),
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
