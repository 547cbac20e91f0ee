// Package symbolic implements BDD-based analysis of safe Petri nets
// (Section 2.2): implicit reachability-set computation with one variable per
// place, the invariant-based upper approximation of the reachability space,
// and the dense state encoding derived from a state-machine cover (the
// paper's v1..v4 table).
package symbolic

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strconv"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/structural"
)

// Result is the outcome of a symbolic traversal.
type Result struct {
	M *bdd.Manager
	// States is the characteristic function of the reachability set.
	States bdd.Ref
	// Count is the number of reachable markings as a float64 — kept for
	// display, but exact only below 2^53.
	Count float64
	// CountExact is the exact number of reachable markings, which deep
	// generated families can push past float64 precision.
	CountExact *big.Int
	// Iterations is the number of image steps until the fixed point.
	Iterations int
	// PeakNodes is the peak number of simultaneously live BDD nodes.
	PeakNodes int
	// Stats is the BDD kernel counter snapshot after traversal: cache hit
	// rates, GC collections, reorder passes (see bdd.Stats).
	Stats bdd.Stats
}

// Options tune the BDD kernel during a symbolic traversal.
type Options struct {
	// Sift enables dynamic variable reordering (Rudell sifting): the
	// manager reorders whenever the live node count quadruples since the
	// last pass.
	Sift bool
	// GCThreshold is the live-node count that arms mark-and-sweep garbage
	// collection between image steps; after each collection the threshold
	// doubles from the surviving size. 0 uses a default of 1<<15 live
	// nodes; a negative value disables GC.
	GCThreshold int
	// Budget adds cancellation and a live-BDD-node ceiling
	// (Budget.MaxNodes), both checked between fixpoint iterations — the
	// natural blow-up boundary of the symbolic engine. The node ceiling is
	// enforced after the iteration's garbage collection, so only genuinely
	// live nodes count against it.
	Budget *budget.Budget
	// Obs is the parent observability span: the traversal records an
	// "engine:symbolic" child span, the symbolic.* counters and the bdd.*
	// kernel-stat counters into its registry. nil disables observability.
	Obs *obs.Span
}

func (o Options) gcThreshold() int {
	if o.GCThreshold > 0 {
		return o.GCThreshold
	}
	if o.GCThreshold < 0 {
		return math.MaxInt
	}
	return 1 << 15
}

// Reach computes the reachable markings of a safe net with the naive
// one-variable-per-place encoding: starting from the initial marking, the
// image of the transition function is applied iteratively until the
// characteristic function reaches a fixed point. Enabledness uses 1-safe
// semantics: input places marked and fresh output places empty. A net that
// is not safe gets the fixpoint's Result together with an error naming the
// first transition, in net order, that puts a second token in a place.
func Reach(n *petri.Net) (*Result, error) { return ReachOpts(n, Options{}) }

// ReachOpts is Reach with explicit kernel options: bounded-memory garbage
// collection of dead intermediate nodes and optional dynamic reordering.
// On a budget trip (cancellation, deadline, node ceiling) the partial
// Result — the under-approximate reachability set computed so far — is
// returned alongside the typed budget error.
func ReachOpts(n *petri.Net, opts Options) (*Result, error) {
	sp := opts.Obs.Child("engine:symbolic")
	res, err := reachOpts(n, opts, sp)
	recordSymbolic(sp, res, err)
	return res, err
}

// recordSymbolic writes the traversal totals and the BDD kernel counter
// snapshot into the engine span's registry and closes the span. Partial
// results from budget trips still report what was computed.
func recordSymbolic(sp *obs.Span, res *Result, err error) {
	if sp == nil {
		return
	}
	reg := sp.Registry()
	if res != nil {
		reg.Counter("symbolic.iterations").Add(int64(res.Iterations))
		reg.Gauge("symbolic.peak_nodes").Max(int64(res.PeakNodes))
		st := res.Stats
		reg.Counter("bdd.cache_lookups").Add(int64(st.CacheLookups))
		reg.Counter("bdd.cache_hits").Add(int64(st.CacheHits))
		reg.Counter("bdd.unique_lookups").Add(int64(st.UniqueLookups))
		reg.Counter("bdd.unique_hits").Add(int64(st.UniqueHits))
		reg.Counter("bdd.gc_runs").Add(int64(st.GCRuns))
		reg.Counter("bdd.gc_freed").Add(int64(st.GCFreed))
		reg.Counter("bdd.reorders").Add(int64(st.Reorders))
		reg.Counter("bdd.swaps").Add(int64(st.Swaps))
		sp.Attr("iterations", strconv.Itoa(res.Iterations))
		sp.Attr("peak_nodes", strconv.Itoa(res.PeakNodes))
		sp.Attr("cache_hit_rate", strconv.FormatFloat(st.CacheHitRate(), 'f', 3, 64))
	}
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
}

func reachOpts(n *petri.Net, opts Options, sp *obs.Span) (*Result, error) {
	if len(n.Places) > 4096 {
		return nil, fmt.Errorf("symbolic: %d places is unreasonable", len(n.Places))
	}
	m := bdd.New(len(n.Places))

	// Initial marking cube and per-transition precomputed pieces, pinned
	// against the traversal's garbage collections.
	init, err := InitCube(n, m, 0)
	if err != nil {
		return nil, err
	}
	ts := BuildTrans(n, m, 0)
	for _, tr := range ts {
		m.IncRef(tr.Enable)
		m.IncRef(tr.Result)
	}

	// Frontier-set traversal with reference-counted roots: only the
	// transition relation, the reached set and the current frontier are
	// protected, so periodic mark-and-sweep collections reclaim every
	// intermediate image and keep memory bounded on long traversals.
	reached := m.IncRef(init)
	frontier := m.IncRef(init)
	gcAt := opts.gcThreshold()
	siftAt := 1 << 12
	iters := 0
	checks := sp.Registry().Counter("symbolic.budget_checks")
	for frontier != bdd.False {
		checks.Inc()
		if err := opts.Budget.Check("symbolic.iter"); err != nil {
			m.DecRef(frontier)
			return result(m, reached, iters), err
		}
		iters++
		next := Image(m, frontier, ts)
		m.DecRef(frontier)
		frontier = m.IncRef(m.Diff(next, reached))
		m.DecRef(reached)
		reached = m.IncRef(m.Or(reached, next))
		if live := m.Size(); live > gcAt {
			m.GC()
			if sp != nil {
				sp.Event("gc", "live", strconv.Itoa(m.Size()))
			}
			if s := m.Size() * 2; s > gcAt {
				gcAt = s
			}
		}
		if opts.Sift {
			if live := m.Size(); live > siftAt {
				m.Sift()
				if sp != nil {
					sp.Event("sift", "live", strconv.Itoa(m.Size()))
				}
				siftAt = m.Size() * 4
			}
		}
		// Node ceiling, after collection so only live nodes count. A trip
		// returns the partial reachability set computed so far alongside the
		// typed error.
		checks.Inc()
		if err := opts.Budget.CheckNodes(m.Size()); err != nil {
			m.DecRef(frontier)
			return result(m, reached, iters), err
		}
	}
	m.DecRef(frontier)
	// The Result snapshots the kernel's counters before the check runs.
	res := result(m, reached, iters)
	return res, checkSafe(n, m, reached)
}

// checkSafe returns an error naming the first transition t, in net order,
// that a reached marking enables — t's preset marked — while a place t
// produces but does not consume is marked. Enabledness includes
// contact-freeness, so the fixpoint never fires t there: without this
// check it would stop short on a net that is not safe.
func checkSafe(n *petri.Net, m *bdd.Manager, reached bdd.Ref) error {
	for _, tr := range n.Transitions {
		from := reached
		for _, p := range tr.Pre {
			from = m.And(from, m.Var(p))
		}
		for _, p := range tr.Post {
			if !slices.Contains(tr.Pre, p) && m.And(from, m.Var(p)) != bdd.False {
				return fmt.Errorf("symbolic: net not safe: firing %s puts a second token in %s",
					tr.Name, n.Places[p].Name)
			}
		}
	}
	return nil
}

// result snapshots a (possibly partial) traversal into a Result.
func result(m *bdd.Manager, reached bdd.Ref, iters int) *Result {
	return &Result{
		M: m, States: reached,
		Count:      m.SatCount(reached),
		CountExact: m.SatCountBig(reached),
		Iterations: iters,
		PeakNodes:  m.Stats().PeakLive,
		Stats:      m.Stats(),
	}
}

// DeadStates computes the characteristic function of reachable deadlocked
// markings fully symbolically: Reach ∧ ¬(∨_t enabled_t). This is the
// BDD-based property verification of Section 2.2 ("absence of deadlocks")
// — no marking is ever enumerated.
func DeadStates(n *petri.Net, res *Result) (bdd.Ref, float64) {
	m := res.M
	dead := m.Diff(res.States, SomeEnabled(m, BuildTrans(n, m, 0)))
	return dead, m.SatCount(dead)
}

// InvariantApprox builds the conjunction of the characteristic functions of
// the SM-cover invariants ("exactly one place of each component is marked")
// in the same manager/encoding as a Reach result. It is an upper
// approximation of the reachability set — exact for some nets, including the
// paper's reduced read/write example.
func InvariantApprox(n *petri.Net, m *bdd.Manager) (bdd.Ref, []structural.SM, error) {
	cover, ok := structural.SMCover(n)
	if !ok {
		return bdd.False, nil, fmt.Errorf("symbolic: net has no SM cover")
	}
	chi := bdd.True
	for _, sm := range cover {
		if sm.TokenCount(n) != 1 {
			return bdd.False, nil, fmt.Errorf("symbolic: SM component carries %d tokens, want 1",
				sm.TokenCount(n))
		}
		one := bdd.False
		for _, p := range sm.Places {
			cube := m.Var(p)
			for _, q := range sm.Places {
				if q != p {
					cube = m.And(cube, m.NVar(q))
				}
			}
			one = m.Or(one, cube)
		}
		chi = m.And(chi, one)
	}
	return chi, cover, nil
}

// Dense is the dense state encoding of Section 2.2: each state-machine
// component of a cover contributes ceil(log2 |places|) variables holding the
// index of its marked place.
type Dense struct {
	Net   *petri.Net
	Cover []structural.SM
	M     *bdd.Manager
	// BitsOf[i] lists the variable indexes of component i.
	BitsOf [][]int
	// posIn[i][place] = index of place within component i, or -1.
	posIn [][]int
}

// NewDense derives the dense encoding from the net's SM cover.
func NewDense(n *petri.Net) (*Dense, error) {
	cover, ok := structural.SMCover(n)
	if !ok {
		return nil, fmt.Errorf("symbolic: net has no SM cover")
	}
	d := &Dense{Net: n, Cover: cover}
	total := 0
	for _, sm := range cover {
		if sm.TokenCount(n) != 1 {
			return nil, fmt.Errorf("symbolic: dense encoding needs 1 token per component")
		}
		total += bitsFor(len(sm.Places))
	}
	d.M = bdd.New(total)
	next := 0
	for i, sm := range cover {
		k := bitsFor(len(sm.Places))
		var bits []int
		for b := 0; b < k; b++ {
			bits = append(bits, next)
			next++
		}
		d.BitsOf = append(d.BitsOf, bits)
		pos := make([]int, len(n.Places))
		for p := range pos {
			pos[p] = -1
		}
		for j, p := range sm.Places {
			pos[p] = j
		}
		d.posIn = append(d.posIn, pos)
		_ = i
	}
	return d, nil
}

// Bits returns the total number of encoding variables — the paper's point:
// typically far fewer than one per place.
func (d *Dense) Bits() int { return d.M.NumVars() }

// EncodeMarking maps a marking to its dense code; it fails when the marking
// does not mark exactly one place per component.
func (d *Dense) EncodeMarking(m petri.Marking) (uint64, error) {
	var code uint64
	for i, sm := range d.Cover {
		marked := -1
		for _, p := range sm.Places {
			if m[p] > 0 {
				if marked >= 0 {
					return 0, fmt.Errorf("symbolic: two marked places in component %d", i)
				}
				marked = d.posIn[i][p]
			}
		}
		if marked < 0 {
			return 0, fmt.Errorf("symbolic: no marked place in component %d", i)
		}
		for b, v := range d.BitsOf[i] {
			if marked&(1<<uint(b)) != 0 {
				code |= 1 << uint(v)
			}
		}
	}
	return code, nil
}

// stateCube returns the cube fixing component i to place-position pos.
func (d *Dense) stateCube(i, pos int) bdd.Ref {
	cube := bdd.True
	for b, v := range d.BitsOf[i] {
		if pos&(1<<uint(b)) != 0 {
			cube = d.M.And(cube, d.M.Var(v))
		} else {
			cube = d.M.And(cube, d.M.NVar(v))
		}
	}
	return cube
}

// Reach computes the reachability set in the dense encoding and returns its
// characteristic function and the state count.
func (d *Dense) Reach() (bdd.Ref, float64, error) {
	m := d.M
	initCode, err := d.EncodeMarking(d.Net.InitialMarking())
	if err != nil {
		return bdd.False, 0, err
	}
	init := bdd.True
	for v := 0; v < m.NumVars(); v++ {
		if initCode&(1<<uint(v)) != 0 {
			init = m.And(init, m.Var(v))
		} else {
			init = m.And(init, m.NVar(v))
		}
	}

	// Per transition: the components it touches, its pre-cube and
	// post-cube in dense variables. A transition outside every component
	// cannot exist for a covered net (its places are covered), but a
	// transition whose places span a component exactly once each is the
	// normal case.
	var ts []Trans
	for t, tr := range d.Net.Transitions {
		enable := bdd.True
		result := bdd.True
		var touched []int
		involved := false
		for i := range d.Cover {
			preP, postP := -1, -1
			for _, p := range tr.Pre {
				if d.posIn[i][p] >= 0 {
					preP = d.posIn[i][p]
				}
			}
			for _, p := range tr.Post {
				if d.posIn[i][p] >= 0 {
					postP = d.posIn[i][p]
				}
			}
			if preP < 0 && postP < 0 {
				continue
			}
			if preP < 0 || postP < 0 {
				return bdd.False, 0, fmt.Errorf(
					"symbolic: transition %s enters/leaves component %d asymmetrically",
					d.Net.Transitions[t].Name, i)
			}
			involved = true
			enable = d.M.And(enable, d.stateCube(i, preP))
			result = d.M.And(result, d.stateCube(i, postP))
			touched = append(touched, d.BitsOf[i]...)
		}
		if involved {
			ts = append(ts, Trans{Enable: enable, Result: result, Touched: touched})
		}
	}

	reached := init
	frontier := init
	for frontier != bdd.False {
		next := Image(m, frontier, ts)
		frontier = m.Diff(next, reached)
		reached = m.Or(reached, next)
	}
	return reached, m.SatCount(reached), nil
}

func bitsFor(n int) int {
	b := 0
	for (1 << uint(b)) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
