package encoding

import (
	"fmt"
	"strconv"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/stg"
)

// Options configure the CSC solvers.
type Options struct {
	// Workers sizes the candidate evaluator's worker pool (0 or 1 = one
	// worker): the (rise, fall) insertion pairs of every ranking round —
	// each solved one costed in the task that scored it — or the (delayed,
	// until) orderings of every reduction round are fanned out across it.
	// The ranking key is (conflicts, literals, enumeration order), so the
	// solutions are identical at any worker count.
	Workers int
	// Budget adds cancellation between candidate evaluations; nil is
	// unlimited. The check runs once per explored insertion pair — one per
	// class of isomorphic pairs, see pointClasses, costing included — or
	// ordering; exploring one builds a candidate state graph, which no
	// single check interrupts.
	Budget *budget.Budget
	// Obs is the parent observability span: the solve records an
	// "engine:encoding" child span carrying the totals below as
	// attributes, per-worker spans, and the encoding.* counters into its
	// registry: candidates (insertion pairs judged, and orderings),
	// explored (insertion pairs explored on the state-graph product, one
	// per class; the other pairs take their class's verdict), rebuilt
	// (candidates built as STGs and explored, every ordering among them),
	// one rejected_<reason> per rejection reason, memo_misses and
	// memo_hits (solved insertion pairs that represent their class and
	// are costed, and the other solved pairs, which take their class's
	// cost), costed, twin_skips (first-round survivors skipped as twins of
	// exhausted ones) and budget_checks. The per-candidate explorations
	// stay uninstrumented — a solve scores thousands of them. nil disables
	// observability.
	Obs *obs.Span
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// evalCtx carries the per-solve evaluation state: the worker count and
// each worker's product scratch, the solve budget and the observability
// handles (engine span plus the encoding.* counters, all nil no-ops when
// observability is off).
type evalCtx struct {
	workers int
	scratch []*productScratch
	bgt     *budget.Budget

	sp         *obs.Span
	candidates *obs.Counter
	explored   *obs.Counter
	rebuilt    *obs.Counter
	rejected   [numReasons]*obs.Counter
	memoHits   *obs.Counter
	memoMisses *obs.Counter
	// costed counts the solved candidates whose complex-gate logic was
	// derived to cost them in literals: one per class of isomorphic
	// insertion pairs, one per ordering.
	costed    *obs.Counter
	twinSkips *obs.Counter
	checks    *obs.Counter
}

func newEvalCtx(opts Options) *evalCtx {
	sp := opts.Obs.Child("engine:encoding")
	reg := sp.Registry()
	c := &evalCtx{
		workers:    opts.workers(),
		bgt:        opts.Budget,
		sp:         sp,
		candidates: reg.Counter("encoding.candidates"),
		explored:   reg.Counter("encoding.explored"),
		rebuilt:    reg.Counter("encoding.rebuilt"),
		memoHits:   reg.Counter("encoding.memo_hits"),
		memoMisses: reg.Counter("encoding.memo_misses"),
		costed:     reg.Counter("encoding.costed"),
		twinSkips:  reg.Counter("encoding.twin_skips"),
		checks:     reg.Counter("encoding.budget_checks"),
	}
	for r := rejectInvalid; r < numReasons; r++ {
		c.rejected[r] = reg.Counter("encoding.rejected_" + reasonNames[r])
	}
	for range c.workers {
		c.scratch = append(c.scratch, &productScratch{})
	}
	return c
}

// finish closes the engine span with the registry's evaluation totals.
func (c *evalCtx) finish(err error) {
	if c.sp == nil {
		return
	}
	attr := func(key string, ctr *obs.Counter) {
		c.sp.Attr(key, strconv.FormatInt(ctr.Value(), 10))
	}
	attr("candidates", c.candidates)
	attr("explored", c.explored)
	attr("rebuilt", c.rebuilt)
	for r := rejectInvalid; r < numReasons; r++ {
		attr("rejected_"+reasonNames[r], c.rejected[r])
	}
	attr("memo_hits", c.memoHits)
	attr("memo_misses", c.memoMisses)
	attr("costed", c.costed)
	attr("twin_skips", c.twinSkips)
	attr("budget_checks", c.checks)
	if err != nil {
		c.sp.Attr("error", err.Error())
	}
	c.sp.End()
}

// rebuild builds the candidate inserting signal name into g at pair p
// with InsertSignalAt, explores it, counts it in rebuilt, and checks its
// state graph against the conflict count the product scored.
func (c *evalCtx) rebuild(g *stg.STG, name string, p insPair, conflicts int, opts reach.Options) (*Solution, error) {
	desc := describeInsertion(g, name, p.r, p.f)
	cand, err := InsertSignalAt(g, name, p.r, p.f)
	if err != nil {
		return nil, fmt.Errorf("encoding: product accepted %s: %w", desc, err)
	}
	c.rebuilt.Inc()
	sol, err := explore(cand, opts)
	if err != nil {
		return nil, fmt.Errorf("encoding: rebuilding %s: %w", desc, err)
	}
	if got := len(sol.SG.CSCConflicts()); got != conflicts {
		return nil, fmt.Errorf("encoding: %s: rebuilt state graph has %d CSC conflicts, the product scored %d",
			desc, got, conflicts)
	}
	sol.Description = desc
	return sol, nil
}

// runPool runs task(sc, i) for every i < n across the worker pool, each
// worker on its own product scratch, polling the budget at encoding.eval
// once per task; see budget.Run.
func (c *evalCtx) runPool(n int, task func(sc *productScratch, i int) error) error {
	return budget.Run(c.workers, n, c.bgt, "encoding.eval", c.sp, c.checks, func(w, i int) error {
		return task(c.scratch[w], i)
	})
}

// insPair is one enumerated (rise, fall) candidate with its deterministic
// enumeration index — the ranking tie-breaker that makes the chosen solution
// independent of evaluation order — and rep, the index of the first pair of
// its class of isomorphic insertions (pointClasses), itself for the pair
// that represents its class.
type insPair struct {
	r, f  Point
	order int
	rep   int
}

// scored is one accepted candidate with its ranking key. A solved
// candidate that represents its class of pairs carries the Solution it was
// costed on, and rankedInsertions gives every survivor its Solution.
type scored struct {
	pair insPair
	key  [3]int
	sol  *Solution
}

// evalPairs judges every pair of the round. Only each class's
// representative is explored on the round's product, across the worker
// pool; every other pair takes its representative's verdict. A
// representative that solves CSC is rebuilt and costed in the task that
// scored it: isomorphic candidates have the same literal cost, so the
// other pairs of its class take that cost too. Results land in a slot per
// pair, so the assembled order — and with it the ranking — is the
// enumeration order at any worker count.
func evalPairs(g *stg.STG, name string, pr *product, pairs []insPair, ctx *evalCtx) ([]scored, error) {
	type result struct {
		v   verdict
		sol *Solution // solved representatives only
	}
	results := make([]result, len(pairs))
	n := 0
	for i, p := range pairs {
		if p.rep == i {
			n++
		}
	}
	reps := make([]int, 0, n)
	for i, p := range pairs {
		if p.rep == i {
			reps = append(reps, i)
		}
	}
	err := ctx.runPool(len(reps), func(sc *productScratch, k int) error {
		i := reps[k]
		p := pairs[i]
		v := pr.score(sc, p.r, p.f)
		results[i].v = v
		if v.reason != none || v.conflicts != 0 {
			return nil
		}
		sol, err := ctx.rebuild(g, name, p, 0, reach.Options{})
		if err != nil {
			return err
		}
		ctx.costed.Inc()
		ctx.memoMisses.Inc()
		if sol.Literals, err = complexLiterals(sol.SG); err != nil {
			return fmt.Errorf("encoding: costing %s: %w", sol.Description, err)
		}
		results[i].sol = sol
		return nil
	})
	if err != nil {
		return nil, err
	}

	ctx.candidates.Add(int64(len(pairs)))
	ctx.explored.Add(int64(len(reps)))
	var rejected [numReasons]int64 // rejected[none] counts the accepted pairs
	for _, p := range pairs {
		rejected[results[p.rep].v.reason]++
	}
	for r := rejectInvalid; r < numReasons; r++ {
		ctx.rejected[r].Add(rejected[r])
	}
	all := make([]scored, 0, rejected[none])
	var hits int64 // solved pairs that take their representative's cost
	for i, p := range pairs {
		rep := &results[p.rep]
		if rep.v.reason != none {
			continue
		}
		s := scored{pair: p, key: [3]int{rep.v.conflicts, unsolvedLiteralCost, p.order}}
		if rep.sol != nil {
			s.key[1] = rep.sol.Literals
			if p.rep == i {
				s.sol = rep.sol
			} else {
				hits++
			}
		}
		all = append(all, s)
	}
	ctx.memoHits.Add(hits)
	return all, nil
}

// pointClasses returns, for each insertion point, the index in points of
// the first point of its class: points whose insertions build the same net
// up to place names. "after t" and "before u" share a class when t's
// postset is exactly one place p, p is unmarked, t is p's only producer, u
// is p's only consumer and p is u's whole preset; every other point is a
// class of its own.
//
// The rule is exact. Both points splice x± into the one link from t to u,
// so both candidate nets read t → · → x± → · → u through two unmarked
// places, and an insertion at a point of another class touches neither
// place. InsertSignalAt appends x+ and then x−, so the two candidates have
// the same transitions under the same indexes and differ only in place
// names and place order. reach.BuildSG explores them in the same order
// into the same graph, and the product mirrors BuildSG, so the verdict is
// the same: reason, conflict count, state cap and first failure, on the
// toggle and dummy paths too. Pairs (r, f) and (r', f') with r ≡ r' and
// f ≡ f' are therefore scored alike, and only their enumeration order
// differs. A pair whose two points share a class is not: x+ and x− then
// sit on the same link in opposite orders.
//
// The rule covers one-place links only. If t's postset is two such places
// {p1, p2}, "after t" gives one place t→x and two places x→u, while "before
// u" gives two places t→x and one x→u: different nets, which the encoding
// tests' canonical signature tells apart.
func pointClasses(g *stg.STG, points []Point) []int {
	net := g.Net
	before := make([]int, len(net.Transitions)) // 1 + the point "before u"
	cls := make([]int, len(points))
	for i, pt := range points {
		cls[i] = i
		if pt.Before {
			before[pt.Trans] = i + 1
		}
	}
	for i, pt := range points {
		post := net.Transitions[pt.Trans].Post
		if pt.Before || len(post) != 1 {
			continue
		}
		p := &net.Places[post[0]]
		if p.Initial != 0 || len(p.Pre) != 1 || len(p.Post) != 1 {
			continue
		}
		u := p.Post[0]
		if j := before[u] - 1; j >= 0 && len(net.Transitions[u].Pre) == 1 {
			cls[i], cls[j] = min(i, j), min(i, j)
		}
	}
	return cls
}
