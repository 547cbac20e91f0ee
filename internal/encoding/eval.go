package encoding

import (
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Options configure the CSC solvers.
type Options struct {
	// Workers sizes the candidate evaluator's worker pool (0 or 1 = one
	// worker): the (rise, fall) insertion pairs of every ranking round are
	// fanned out across it. The ranking key is (conflicts, literals,
	// enumeration order), so the solution list is identical at any worker
	// count.
	Workers int
	// Budget adds cancellation between candidate evaluations; nil is
	// unlimited. Each candidate builds a full state graph, so the check runs
	// once per candidate rather than amortized.
	Budget *budget.Budget
	// Obs is the parent observability span: the solve records an
	// "engine:encoding" child span, per-worker spans, and the encoding.*
	// counters (candidates, memo hits/misses, budget checks) into its
	// registry. Per-candidate state-graph builds stay uninstrumented — a
	// solve evaluates thousands of them. nil disables observability.
	Obs *obs.Span
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// evalCtx carries the per-solve evaluation state: the worker count, the
// reusable reachability arena for the solve's own state-graph builds, the
// solve budget and the observability handles (engine span plus the
// encoding.* counters, all nil no-ops when observability is off).
type evalCtx struct {
	workers int
	arena   *reach.Arena
	bgt     *budget.Budget

	sp         *obs.Span
	candidates *obs.Counter
	memoHits   *obs.Counter
	memoMisses *obs.Counter
	checks     *obs.Counter
}

func newEvalCtx(opts Options) *evalCtx {
	sp := opts.Obs.Child("engine:encoding")
	reg := sp.Registry()
	return &evalCtx{
		workers:    opts.workers(),
		arena:      reach.NewArena(),
		bgt:        opts.Budget,
		sp:         sp,
		candidates: reg.Counter("encoding.candidates"),
		memoHits:   reg.Counter("encoding.memo_hits"),
		memoMisses: reg.Counter("encoding.memo_misses"),
		checks:     reg.Counter("encoding.budget_checks"),
	}
}

// finish closes the engine span with the registry's evaluation totals.
func (c *evalCtx) finish(err error) {
	if c.sp == nil {
		return
	}
	c.sp.Attr("candidates", strconv.FormatInt(c.candidates.Value(), 10))
	c.sp.Attr("memo_hits", strconv.FormatInt(c.memoHits.Value(), 10))
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

// candMetrics is the memoizable outcome of evaluating one candidate STG.
// Isomorphic candidates have identical metrics: conflict counts, the
// implementability verdict and literal costs are all graph-level properties.
type candMetrics struct {
	ok        bool // property-preserving and reduces the conflict count
	conflicts int
	lits      int
}

// evaluateCandidate scores one candidate STG — a signal insertion or a
// concurrency reduction: build the SG (candidates violating consistency or
// safety fail here), require persistency and deadlock freedom, require
// conflict-count progress, and cost the solved candidates by complex-gate
// literals. Unsolved survivors carry unsolvedLiteralCost.
func evaluateCandidate(cand *stg.STG, baseConflicts int, ar *reach.Arena) (*ts.SG, candMetrics) {
	sg, err := reach.BuildSG(cand, reach.Options{Arena: ar})
	if err != nil {
		return nil, candMetrics{}
	}
	if sg, err = ts.ContractDummies(sg); err != nil {
		return nil, candMetrics{}
	}
	imp := sg.CheckImplementability()
	if !imp.Persistent || !imp.DeadlockFree {
		return nil, candMetrics{}
	}
	conflicts := len(sg.CSCConflicts())
	if conflicts >= baseConflicts {
		return nil, candMetrics{}
	}
	lits := unsolvedLiteralCost
	if conflicts == 0 {
		l, err := complexLiterals(sg)
		if err != nil {
			return nil, candMetrics{}
		}
		lits = l
	}
	return sg, candMetrics{ok: true, conflicts: conflicts, lits: lits}
}

// insPair is one enumerated (rise, fall) candidate with its deterministic
// enumeration index — the ranking tie-breaker that makes the chosen solution
// independent of evaluation order.
type insPair struct {
	r, f  Point
	order int
}

type scored struct {
	sol *Solution
	key [3]int
}

// memoEntry is a singleflight slot: the first worker to claim a canonical
// signature computes the metrics and closes done; later workers with an
// isomorphic candidate wait and reuse them.
type memoEntry struct {
	done chan struct{}
	m    candMetrics
}

// evalPairs fans the candidate evaluations across ctx.workers goroutines,
// each with its own reachability arena. A canonical-signature memo lets
// symmetric insertion points (isomorphic candidate STGs) share one
// evaluation. Results land in a slot per pair, so assembly order — and with
// it the ranking — is the enumeration order, not the completion order.
// Memo-hit survivors come back without an SG; the caller rebuilds the few
// that survive the ranked cut.
//
// The pool is panic-safe: a panicking worker closes any memo entry it owns
// (so no sibling blocks forever on a singleflight slot), stops the others,
// and surfaces as budget.ErrInternal with the captured stack. Budget
// cancellation is polled once per candidate and aborts the same way.
func evalPairs(g *stg.STG, name string, pairs []insPair, baseConflicts int, ctx *evalCtx) ([]scored, error) {
	workers, bgt := ctx.workers, ctx.bgt
	type result struct {
		cand *stg.STG
		sg   *ts.SG
		m    candMetrics
	}
	results := make([]result, len(pairs))
	memo := make(map[string]*memoEntry)
	var mu sync.Mutex
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := ctx.sp.ChildLane("worker:"+strconv.Itoa(w+1), w+1)
			defer wsp.End()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = budget.Internal(r, debug.Stack())
					stop.Store(true)
				}
			}()
			ar := reach.NewArena()
			for {
				if stop.Load() {
					return
				}
				ctx.checks.Inc()
				if err := bgt.Check("encoding.eval"); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				p := pairs[i]
				cand, err := InsertSignalAt(g, name, p.r, p.f)
				if err != nil {
					continue
				}
				sig := canonicalSignature(cand)
				mu.Lock()
				e, hit := memo[sig]
				if !hit {
					e = &memoEntry{done: make(chan struct{})}
					memo[sig] = e
				}
				mu.Unlock()
				if hit {
					ctx.memoHits.Inc()
					<-e.done
					if e.m.ok {
						results[i] = result{cand: cand, m: e.m}
					}
					continue
				}
				ctx.memoMisses.Inc()
				ctx.candidates.Inc()
				// The deferred close keeps the singleflight slot from
				// wedging siblings if the evaluation panics; the zero
				// metrics they then read mark the candidate failed.
				func() {
					defer close(e.done)
					sg, m := evaluateCandidate(cand, baseConflicts, ar)
					e.m = m
					if m.ok {
						results[i] = result{cand: cand, sg: sg, m: m}
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []scored
	for i, res := range results {
		if !res.m.ok {
			continue
		}
		p := pairs[i]
		all = append(all, scored{
			sol: &Solution{
				STG:         res.cand,
				SG:          res.sg, // nil on memo hits; rebuilt after ranking
				Description: describeInsertion(g, name, p.r, p.f),
				Literals:    res.m.lits,
			},
			key: [3]int{res.m.conflicts, res.m.lits, p.order},
		})
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
