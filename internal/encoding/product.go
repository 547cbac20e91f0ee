package encoding

import (
	"errors"

	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

// reason says why a candidate is rejected; accepted candidates carry none.
type reason uint8

const (
	none reason = iota
	// rejectInvalid: the candidate STG fails Validate, or contracting its
	// dummy arcs makes a signal edge nondeterministic.
	rejectInvalid
	// rejectUnsafe: some place of the candidate net gets a second token.
	rejectUnsafe
	// rejectInconsistent: a signal's rising and falling edges do not
	// alternate.
	rejectInconsistent
	// rejectLimit: the state graph exceeds the state cap or the 64-signal
	// code width.
	rejectLimit
	rejectNotPersistent
	rejectDeadlock
	// rejectNoProgress: at least as many CSC conflicts as the base.
	rejectNoProgress
	numReasons
)

var reasonNames = [numReasons]string{
	"", "invalid", "unsafe", "inconsistent", "limit", "not_persistent", "deadlock", "no_progress",
}

// verdict is the outcome of scoring one candidate: its rejection reason, or
// none and the CSC conflicts left. No-progress rejections carry their
// conflict count too.
type verdict struct {
	reason    reason
	conflicts int
}

// scoreSG checks a candidate's state graph: persistency, deadlock freedom
// and conflict-count progress over the base. conflicts returns the graph's
// CSC conflict count; it runs only once the first two checks pass.
func scoreSG(sg *ts.SG, conflicts func() int, baseConflicts int) verdict {
	if !sg.IsPersistent() {
		return verdict{reason: rejectNotPersistent}
	}
	if len(sg.Deadlocks()) > 0 {
		return verdict{reason: rejectDeadlock}
	}
	c := conflicts()
	if c >= baseConflicts {
		return verdict{reason: rejectNoProgress, conflicts: c}
	}
	return verdict{conflicts: c}
}

// evaluateCandidate scores one candidate STG by building its state graph:
// reach.BuildSG (which rejects unsafe and inconsistent candidates), dummy
// contraction, then scoreSG. Concurrency reduction scores its candidates
// this way; for signal insertions it is the oracle the product is tested
// against.
func evaluateCandidate(cand *stg.STG, baseConflicts int, opts reach.Options) (*ts.SG, verdict) {
	sg, err := reach.BuildSG(cand, opts)
	if err != nil {
		return nil, verdict{reason: buildReason(err)}
	}
	if sg, err = ts.ContractDummies(sg); err != nil {
		return nil, verdict{reason: rejectInvalid}
	}
	return sg, scoreSG(sg, func() int { return len(sg.CSCConflicts()) }, baseConflicts)
}

// buildReason classifies a reach.BuildSG failure. With no budget the only
// other failures are the state cap and the 64-signal code width.
func buildReason(err error) reason {
	switch {
	case errors.Is(err, reach.ErrUnsafe):
		return rejectUnsafe
	case errors.Is(err, reach.ErrInconsistent):
		return rejectInconsistent
	default:
		return rejectLimit
	}
}

// product scores the signal insertions of one ranking round on the round's
// base state graph, without building or exploring any candidate STG.
//
// Inserting x± before t hands t's preset to x± and puts a fresh place in
// front of t; inserting it after t hands t's postset to x± behind a fresh
// place. Call those presets and postsets the insertion's held places. While
// x± is pending (its splice place is marked) the held places are virtually
// marked but physically empty, so every reachable marking of the candidate
// is a base marking with the pending insertions' held places emptied and
// their splice places marked. The candidate's states are therefore the
// triples (base state, rise pending, fall pending) — plus x's value on the
// toggle path, where codes are part of the state — and its firings are the
// base arcs not consuming a held place, with the insertion targets gated
// by the pending flags, plus the two new transitions. Every base path
// replays in the candidate, each insertion resolved right after it starts,
// so every base transition fires there and the base signals keep their
// base codes, initial values included. The exploration mirrors
// reach.BuildSG on the candidate: the same discovery order, codes, arcs,
// state cap and failures (unsafety before inconsistency off the toggle
// path, the first failure in firing order on it).
type product struct {
	base    *ts.SG  // raw base state graph, before dummy contraction
	trans   [][]int // trans[s][k] is the transition firing on base.Out[s][k]
	toggle  bool    // base.States are (marking, code) pairs, codes start at 0
	dummies bool    // the candidate state graphs need dummy contraction
	// invalid: every candidate fails Validate. Insertion keeps every
	// preset non-empty unless the target's already is, and isolates no
	// place, so a candidate is well formed exactly when the base is.
	invalid   bool
	wide      bool // the inserted signal does not fit a 64-bit code
	maxStates int  // the candidate state cap, reach's default as in a rebuild
	conflicts int  // the base's CSC conflicts, which a candidate must reduce
	// group[s] is raw base state s's code group: a dense index per
	// distinct base code. codeGroup maps each base code to its group.
	group     []int32
	codeGroup map[ts.Code]int32
	signals   []stg.Signal
	rise      ts.Event
	fall      ts.Event
	// blocked holds, per insertion point (2*t for before t, 2*t+1 for
	// after t), the bitset of base transitions whose preset meets the
	// point's held places.
	words   int
	blocked []uint64
}

// newProduct prepares the product of round base g, whose raw state graph
// and arc transitions reach.BuildSGTrans returned and whose contracted
// state graph has conflicts CSC conflicts, for inserting signal name.
func newProduct(g *stg.STG, base *ts.SG, trans [][]int, name string, conflicts int) *product {
	net := g.Net
	nT := len(net.Transitions)
	sig := len(g.Signals)
	pr := &product{
		base:      base,
		trans:     trans,
		toggle:    reach.HasToggle(g),
		invalid:   g.Validate() != nil,
		wide:      sig+1 > 64,
		maxStates: reach.DefaultMaxStates,
		conflicts: conflicts,
		signals:   append(append([]stg.Signal(nil), g.Signals...), stg.Signal{Name: name, Kind: stg.Internal}),
		rise:      ts.Event{Sig: sig, Dir: stg.Rise, Name: name + stg.Rise.String()},
		fall:      ts.Event{Sig: sig, Dir: stg.Fall, Name: name + stg.Fall.String()},
		words:     (nT + 63) / 64,
	}
	for _, l := range g.Labels {
		if l.Sig < 0 {
			pr.dummies = true
		}
	}
	pr.group = make([]int32, len(base.States))
	pr.codeGroup = make(map[ts.Code]int32)
	for s, st := range base.States {
		gr, ok := pr.codeGroup[st.Code]
		if !ok {
			gr = int32(len(pr.codeGroup))
			pr.codeGroup[st.Code] = gr
		}
		pr.group[s] = gr
	}
	pr.blocked = make([]uint64, 2*nT*pr.words)
	for t, tr := range net.Transitions {
		for side, held := range [2][]int{tr.Pre, tr.Post} {
			row := pr.blocked[(2*t+side)*pr.words:][:pr.words]
			for _, p := range held {
				for _, u := range net.Places[p].Post {
					row[u/64] |= 1 << uint(u%64)
				}
			}
		}
	}
	return pr
}

// heldBy returns the bitset of base transitions blocked while insertion p
// is pending.
func (pr *product) heldBy(p Point) []uint64 {
	i := 2 * p.Trans
	if !p.Before {
		i++
	}
	return pr.blocked[i*pr.words:][:pr.words]
}

func has(set []uint64, t int) bool { return set[t/64]&(1<<uint(t%64)) != 0 }

// enabled reports whether base transition t fires in base state s.
func (pr *product) enabled(s, t int) bool {
	for _, u := range pr.trans[s] {
		if u == t {
			return true
		}
	}
	return false
}

// xEnabled reports whether the inserted transition at p fires in base
// state s, given whether it and the other insertion are pending.
func (pr *product) xEnabled(s int, p Point, pending, otherPending bool, otherHeld []uint64) bool {
	if !p.Before {
		return pending
	}
	return !pending && pr.enabled(s, p.Trans) && !(otherPending && has(otherHeld, p.Trans))
}

// pnode is one state of the product: base state s, the pending flags of
// the rise and fall insertions, and x — the inserted signal's value on the
// toggle path, its flip parity since the initial state off it.
type pnode struct {
	s    int
	a, b bool
	x    bool
}

// productScratch is one worker's reusable exploration memory. The state
// graph stateGraph returns lives here until the next call.
type productScratch struct {
	idx   []int32 // product state index by key, -1 when unvisited
	nodes []pnode
	out   [][]ts.Arc
	sg    ts.SG
	// head[b] is the last mask entry of code bucket b, -1 when empty; see
	// countConflicts.
	head  []int32
	masks []maskCount
}

// maskCount counts the states of one code bucket that carry one
// excitation mask; next links the bucket's earlier entry.
type maskCount struct {
	mask         uint64
	n            int
	next, bucket int32
}

func (pr *product) key(n pnode) int {
	k := 4*n.s + boolInt(n.a)*2 + boolInt(n.b)
	if pr.toggle {
		k = 2*k + boolInt(n.x)
	}
	return k
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// score scores one insertion pair on the product.
func (pr *product) score(sc *productScratch, r, f Point) verdict {
	sg, why := pr.stateGraph(sc, r, f)
	if why != none {
		return verdict{reason: why}
	}
	return scoreSG(sg, func() int { return pr.countConflicts(sc, sg) }, pr.conflicts)
}

// countConflicts returns len(sg.CSCConflicts()) for the candidate graph sg
// that stateGraph just returned, without listing or sorting pairs: the
// pairs of states sharing a code whose excitation masks differ. A
// candidate's code is a base code plus x's bit, so the states sharing one
// fall into one bucket (base code group, x's bit). On the raw product graph
// a state's group is its base state's; a contracted graph keeps no base
// states, so there it is the group of its code with x's bit cleared. Each
// state adds the earlier states of its bucket whose masks differ from its
// own.
func (pr *product) countConflicts(sc *productScratch, sg *ts.SG) int {
	if need := 2 * len(pr.codeGroup); len(sc.head) < need {
		sc.head = make([]int32, need)
		for i := range sc.head {
			sc.head[i] = -1
		}
	}
	raw := sg == &sc.sg
	xSig := uint(len(pr.signals) - 1)
	total := 0
	sc.masks = sc.masks[:0]
	for i, st := range sg.States {
		var gr int32
		if raw {
			gr = pr.group[sc.nodes[i].s]
		} else {
			gr = pr.codeGroup[st.Code&^(1<<xSig)]
		}
		b := 2*gr + int32(st.Code>>xSig&1)
		m := sg.ExcitedMask(i)
		seen := false
		for e := sc.head[b]; e >= 0; e = sc.masks[e].next {
			if mc := &sc.masks[e]; mc.mask != m {
				total += mc.n
			} else {
				mc.n++
				seen = true
			}
		}
		if !seen {
			sc.masks = append(sc.masks, maskCount{mask: m, n: 1, next: sc.head[b], bucket: b})
			sc.head[b] = int32(len(sc.masks) - 1)
		}
	}
	for _, mc := range sc.masks {
		sc.head[mc.bucket] = -1
	}
	return total
}

// stateGraph returns the state graph of the candidate inserting the new
// signal's rising transition at r and its falling transition at f —
// exactly what reach.BuildSG and ts.ContractDummies make of InsertSignalAt's
// STG up to state keys and labels — or the reason that construction fails.
func (pr *product) stateGraph(sc *productScratch, r, f Point) (*ts.SG, reason) {
	if pr.invalid {
		return nil, rejectInvalid
	}
	if pr.wide {
		return nil, rejectLimit
	}
	need := 4 * len(pr.base.States)
	if pr.toggle {
		need *= 2
	}
	if len(sc.idx) < need {
		sc.idx = make([]int32, need)
		for i := range sc.idx {
			sc.idx[i] = -1
		}
	}
	sg, why := pr.explore(sc, r, f)
	for _, n := range sc.nodes {
		sc.idx[pr.key(n)] = -1
	}
	if why != none {
		return nil, why
	}
	if pr.dummies {
		c, err := ts.ContractDummies(sg)
		if err != nil {
			return nil, rejectInvalid
		}
		sg = c
	}
	return sg, none
}

// explore runs the breadth-first token game of the candidate on the
// product, firing in the candidate's transition order: the base
// transitions, then x+, then x-.
func (pr *product) explore(sc *productScratch, r, f Point) (*ts.SG, reason) {
	rHeld, fHeld := pr.heldBy(r), pr.heldBy(f)
	sc.nodes = append(sc.nodes[:0], pnode{s: pr.base.Initial})
	sc.idx[pr.key(sc.nodes[0])] = 0
	// Off the toggle path x's initial value and the consistency verdict
	// come from labeling the finished graph, after any unsafety or state
	// cap failure of the exploration.
	var xKnown, xInit, inconsistentX bool
	visit := func(n pnode) (int, bool) {
		if i := sc.idx[pr.key(n)]; i >= 0 {
			if !pr.toggle && sc.nodes[i].x != n.x {
				inconsistentX = true
			}
			return int(i), true
		}
		if len(sc.nodes) >= pr.maxStates {
			return 0, false
		}
		sc.idx[pr.key(n)] = int32(len(sc.nodes))
		sc.nodes = append(sc.nodes, n)
		return len(sc.nodes) - 1, true
	}
	// fireX fires x+ (rise) or x- from n into next: on the toggle path the
	// edge must match x's value; off it, the edge fixes x's initial value.
	fireX := func(out []ts.Arc, n, next pnode, rise bool) ([]ts.Arc, reason) {
		ev := pr.fall
		if rise {
			ev = pr.rise
		}
		if pr.toggle {
			if n.x == rise {
				return out, rejectInconsistent
			}
		} else {
			want := n.x != !rise // initial value for which the edge fires at n
			if xKnown && xInit != want {
				inconsistentX = true
			}
			xKnown, xInit = true, want
		}
		next.x = !n.x
		to, ok := visit(next)
		if !ok {
			return out, rejectLimit
		}
		return append(out, ts.Arc{Event: ev, To: to}), none
	}
	for head := 0; head < len(sc.nodes); head++ {
		n := sc.nodes[head]
		if head == len(sc.out) {
			sc.out = append(sc.out, nil)
		}
		out := sc.out[head][:0]
		arcs, trans := pr.base.Out[n.s], pr.trans[n.s]
		for k := range arcs {
			t, arc := trans[k], &arcs[k]
			next := pnode{s: arc.To, a: n.a, b: n.b, x: n.x}
			switch {
			case r.Before && t == r.Trans: // its preset is x+'s splice place
				if !n.a {
					continue
				}
				next.a = false
			case f.Before && t == f.Trans:
				if !n.b {
					continue
				}
				next.b = false
			case n.a && has(rHeld, t), n.b && has(fHeld, t):
				continue
			}
			if !r.Before && t == r.Trans {
				if n.a {
					return nil, rejectUnsafe // a second token behind t
				}
				next.a = true
			}
			if !f.Before && t == f.Trans {
				if n.b {
					return nil, rejectUnsafe
				}
				next.b = true
			}
			to, ok := visit(next)
			if !ok {
				return nil, rejectLimit
			}
			out = append(out, ts.Arc{Event: arc.Event, To: to})
		}
		// x+ then x-. Inserted after t, x± fires from its splice place;
		// inserted before t, it takes over t's preset, so it fires where t
		// is enabled in the base, it is not already pending and the other
		// insertion holds none of that preset.
		why := none
		if pr.xEnabled(n.s, r, n.a, n.b, fHeld) {
			out, why = fireX(out, n, pnode{s: n.s, a: r.Before, b: n.b}, true)
		}
		if why == none && pr.xEnabled(n.s, f, n.b, n.a, rHeld) {
			out, why = fireX(out, n, pnode{s: n.s, a: n.a, b: f.Before}, false)
		}
		if why != none {
			return nil, why
		}
		sc.out[head] = out
	}
	if inconsistentX {
		return nil, rejectInconsistent
	}

	sg := &sc.sg
	*sg = ts.SG{
		Name:    pr.base.Name,
		Signals: pr.signals,
		States:  sg.States[:0],
		Out:     sc.out[:len(sc.nodes)],
	}
	xBit := ts.Code(1) << uint(len(pr.signals)-1)
	for _, n := range sc.nodes {
		c := pr.base.States[n.s].Code
		if n.x != xInit {
			c |= xBit
		}
		sg.States = append(sg.States, ts.State{Code: c})
	}
	return sg, none
}
