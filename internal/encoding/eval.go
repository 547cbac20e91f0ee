package encoding

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Options configure the CSC solvers.
type Options struct {
	// Workers sizes the candidate evaluator's worker pool (0 or 1 = one
	// worker): the (rise, fall) insertion pairs of every ranking round, and
	// then the solved candidates it costs, or the (delayed, until)
	// orderings of every reduction round, are fanned out across it. The
	// ranking key is (conflicts, literals, enumeration order), so the
	// solutions are identical at any worker count.
	Workers int
	// Budget adds cancellation between candidate evaluations; nil is
	// unlimited. The check runs once per scored insertion pair or ordering
	// and once per costed insertion; scoring one explores a candidate state
	// graph, which no single check interrupts.
	Budget *budget.Budget
	// Obs is the parent observability span: the solve records an
	// "engine:encoding" child span carrying the totals below as
	// attributes, per-worker spans, and the encoding.* counters into its
	// registry: candidates (insertion pairs scored on the state-graph
	// product, and orderings), rebuilt (candidates built as STGs and
	// explored, every ordering among them), one rejected_<reason> per
	// rejection reason, memo_hits and memo_misses (the solved insertions'
	// canonical-signature dedup), costed and budget_checks. The
	// per-candidate explorations stay uninstrumented — a solve scores
	// thousands of them. nil disables observability.
	Obs *obs.Span
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// evalCtx carries the per-solve evaluation state: the worker count and
// per-worker scratch, the reusable reachability arena for the solve's own
// state-graph builds, the solve budget and the observability handles
// (engine span plus the encoding.* counters, all nil no-ops when
// observability is off).
type evalCtx struct {
	workers int
	scratch []*workerScratch
	arena   *reach.Arena
	bgt     *budget.Budget

	sp         *obs.Span
	candidates *obs.Counter
	rebuilt    *obs.Counter
	rejected   [numReasons]*obs.Counter
	memoHits   *obs.Counter
	memoMisses *obs.Counter
	// costed counts the solved candidates whose complex-gate logic was
	// derived to cost them in literals: one per isomorphism class of
	// insertions, one per ordering.
	costed *obs.Counter
	checks *obs.Counter
}

// workerScratch is one pool worker's reusable memory.
type workerScratch struct {
	prod  productScratch
	arena *reach.Arena
}

func newEvalCtx(opts Options) *evalCtx {
	sp := opts.Obs.Child("engine:encoding")
	reg := sp.Registry()
	c := &evalCtx{
		workers:    opts.workers(),
		arena:      reach.NewArena(),
		bgt:        opts.Budget,
		sp:         sp,
		candidates: reg.Counter("encoding.candidates"),
		rebuilt:    reg.Counter("encoding.rebuilt"),
		memoHits:   reg.Counter("encoding.memo_hits"),
		memoMisses: reg.Counter("encoding.memo_misses"),
		costed:     reg.Counter("encoding.costed"),
		checks:     reg.Counter("encoding.budget_checks"),
	}
	for r := rejectInvalid; r < numReasons; r++ {
		c.rejected[r] = reg.Counter("encoding.rejected_" + reasonNames[r])
	}
	for range c.workers {
		c.scratch = append(c.scratch, &workerScratch{arena: reach.NewArena()})
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
	attr("rebuilt", c.rebuilt)
	for r := rejectInvalid; r < numReasons; r++ {
		attr("rejected_"+reasonNames[r], c.rejected[r])
	}
	attr("memo_hits", c.memoHits)
	attr("memo_misses", c.memoMisses)
	attr("costed", c.costed)
	attr("budget_checks", c.checks)
	if err != nil {
		c.sp.Attr("error", err.Error())
	}
	c.sp.End()
}

func (c *evalCtx) buildSG(g *stg.STG) (*ts.SG, error) {
	sg, err := reach.BuildSG(g, reach.Options{Arena: c.arena, Budget: c.bgt})
	if err != nil {
		return nil, err
	}
	return ts.ContractDummies(sg)
}

// rebuildSG builds a candidate's state graph the one way every returned
// Solution's is built — reach.BuildSG and dummy contraction — counts it in
// rebuilt, and checks it against the conflict count the product scored.
func (c *evalCtx) rebuildSG(cand *stg.STG, desc string, conflicts int, opts reach.Options) (*ts.SG, error) {
	c.rebuilt.Inc()
	sg, err := reach.BuildSG(cand, opts)
	if err == nil {
		sg, err = ts.ContractDummies(sg)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding: rebuilding %s: %w", desc, err)
	}
	if got := len(sg.CSCConflicts()); got != conflicts {
		return nil, fmt.Errorf("encoding: %s: rebuilt state graph has %d CSC conflicts, the product scored %d",
			desc, got, conflicts)
	}
	return sg, nil
}

// runPool runs task(ws, i) for every i < n across the worker pool, each
// worker on its own scratch, polling the budget at encoding.eval once per
// task; see budget.Run.
func (c *evalCtx) runPool(n int, task func(ws *workerScratch, i int) error) error {
	return budget.Run(c.workers, n, c.bgt, "encoding.eval", c.sp, c.checks, func(w, i int) error {
		return task(c.scratch[w], i)
	})
}

// insPair is one enumerated (rise, fall) candidate with its deterministic
// enumeration index — the ranking tie-breaker that makes the chosen solution
// independent of evaluation order.
type insPair struct {
	r, f  Point
	order int
}

// scored is one accepted candidate with its ranking key. Solved candidates
// carry the STG built for their canonical signature, and the costed
// representative of each isomorphism class its state graph.
type scored struct {
	pair insPair
	key  [3]int
	stg  *stg.STG
	sg   *ts.SG
}

// evalPairs scores every pair on the round's product across the worker
// pool, then costs the solved candidates: grouped by canonical signature
// (isomorphic candidates have the same literal cost), one per class is
// rebuilt and costed, again across the pool. Results land in a slot per
// pair, so the assembled order — and with it the ranking — is the
// enumeration order at any worker count.
func evalPairs(g *stg.STG, name string, pr *product, pairs []insPair, ctx *evalCtx) ([]scored, error) {
	type result struct {
		v    verdict
		cand *stg.STG // solved candidates only
		sig  string
	}
	results := make([]result, len(pairs))
	err := ctx.runPool(len(pairs), func(ws *workerScratch, i int) error {
		p := pairs[i]
		v := pr.score(&ws.prod, p.r, p.f)
		results[i].v = v
		if v.reason == none && v.conflicts == 0 {
			cand, err := InsertSignalAt(g, name, p.r, p.f)
			if err != nil {
				return fmt.Errorf("encoding: product accepted %s: %w", describeInsertion(g, name, p.r, p.f), err)
			}
			results[i].cand, results[i].sig = cand, canonicalSignature(cand)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ctx.candidates.Add(int64(len(pairs)))
	classOf := make(map[string]int)
	var reps []int // pair index of each class's first member
	for i, res := range results {
		ctx.rejected[res.v.reason].Inc()
		if res.cand == nil {
			continue
		}
		if _, ok := classOf[res.sig]; ok {
			ctx.memoHits.Inc()
			continue
		}
		ctx.memoMisses.Inc()
		classOf[res.sig] = len(reps)
		reps = append(reps, i)
	}
	type class struct {
		sg   *ts.SG
		lits int
	}
	classes := make([]class, len(reps))
	err = ctx.runPool(len(reps), func(ws *workerScratch, c int) error {
		p := pairs[reps[c]]
		desc := describeInsertion(g, name, p.r, p.f)
		sg, err := ctx.rebuildSG(results[reps[c]].cand, desc, 0, reach.Options{Arena: ws.arena})
		if err != nil {
			return err
		}
		ctx.costed.Inc()
		lits, err := complexLiterals(sg)
		if err != nil {
			return fmt.Errorf("encoding: costing %s: %w", desc, err)
		}
		classes[c] = class{sg: sg, lits: lits}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []scored
	for i, res := range results {
		if res.v.reason != none {
			continue
		}
		s := scored{pair: pairs[i], key: [3]int{res.v.conflicts, unsolvedLiteralCost, pairs[i].order}}
		if res.cand != nil {
			c := classOf[res.sig]
			s.key[1], s.stg = classes[c].lits, res.cand
			if reps[c] == i {
				s.sg = classes[c].sg
			}
		}
		all = append(all, s)
	}
	return all, nil
}

// canonicalSignature renders a name-independent structural signature of an
// STG: transitions are identified by their (unique) names and every place by
// "sorted preset > sorted postset > tokens", with the place descriptors
// themselves sorted. Generated place names are deliberately excluded —
// symmetric insertion points ("after t" vs "before u" across an unmarked
// chain t -> p -> u) build isomorphic nets differing only in those names,
// and the memo must identify exactly such pairs. Two STGs over the same
// signal set with equal signatures are isomorphic: transition names fix the
// transition bijection and the descriptor multiset fixes the places.
func canonicalSignature(g *stg.STG) string {
	net := g.Net
	descs := make([]string, len(net.Places))
	var sb strings.Builder
	var names []string
	appendNames := func(ts []int) {
		names = names[:0]
		for _, t := range ts {
			names = append(names, net.Transitions[t].Name)
		}
		sort.Strings(names)
		for _, nm := range names {
			sb.WriteString(nm)
			sb.WriteByte(',')
		}
	}
	for i := range net.Places {
		p := &net.Places[i]
		sb.Reset()
		appendNames(p.Pre)
		sb.WriteByte('>')
		appendNames(p.Post)
		sb.WriteByte('>')
		sb.WriteString(strconv.Itoa(p.Initial))
		descs[i] = sb.String()
	}
	sort.Strings(descs)
	return strings.Join(descs, ";")
}
