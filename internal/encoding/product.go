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

// judge gives a candidate graph's verdict from its checks, in scoring
// order: persistency, deadlock freedom, then conflict-count progress over
// the base. conflicts returns the graph's CSC conflict count; it runs only
// once the first two checks pass.
func judge(persistent, deadlockFree bool, conflicts func() int, baseConflicts int) verdict {
	if !persistent {
		return verdict{reason: rejectNotPersistent}
	}
	if !deadlockFree {
		return verdict{reason: rejectDeadlock}
	}
	c := conflicts()
	if c >= baseConflicts {
		return verdict{reason: rejectNoProgress, conflicts: c}
	}
	return verdict{conflicts: c}
}

// scoreSG judges a candidate's state graph, counting its conflicts on the
// pair list.
func scoreSG(sg *ts.SG, baseConflicts int) verdict {
	return judge(sg.IsPersistent(), len(sg.Deadlocks()) == 0,
		func() int { return len(sg.CSCConflicts()) }, baseConflicts)
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
	return sg, scoreSG(sg, baseConflicts)
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
//
// The exploration records the candidate's graph in compact arrays — each
// state's arcs as (target, signal) pairs and E(s), the mask of the signals
// labelling them — and scoring runs its checks as passes over those
// arrays. No ts.SG is built for a scored candidate, except to contract
// dummies.
type product struct {
	base *ts.SG // raw base state graph, before dummy contraction
	// arcs[first[s]:first[s+1]] are base state s's arcs in base.Out's
	// order, each with the net transition it fires, and
	// fires[s*words:][:words] is the bitset of those transitions.
	first   []int32
	arcs    []baseArc
	fires   []uint64
	toggle  bool // base.States are (marking, code) pairs, codes start at 0
	dummies bool // the candidate state graphs need dummy contraction
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
	xSig      int8   // the inserted signal, the candidate's last
	inputs    uint64 // the candidate's input signals
	// blocked holds, per insertion point (2*t for before t, 2*t+1 for
	// after t), the bitset of base transitions whose preset meets the
	// point's held places.
	words   int
	blocked []uint64
}

// arc is an arc of a compact state graph: its target state and the signal
// it fires, -1 for a dummy.
type arc struct {
	to  int32
	sig int8
}

// baseArc is an arc of the base state graph with the net transition it
// fires.
type baseArc struct {
	arc
	trans int32
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
		toggle:    reach.HasToggle(g),
		invalid:   g.Validate() != nil,
		wide:      sig+1 > 64,
		maxStates: reach.DefaultMaxStates,
		conflicts: conflicts,
		signals:   append(append([]stg.Signal(nil), g.Signals...), stg.Signal{Name: name, Kind: stg.Internal}),
		xSig:      int8(sig),
		words:     (nT + 63) / 64,
	}
	for i, s := range g.Signals {
		if s.Kind == stg.Input {
			pr.inputs |= 1 << uint(i)
		}
	}
	for _, l := range g.Labels {
		if l.Sig < 0 {
			pr.dummies = true
		}
	}
	pr.first = make([]int32, len(base.States)+1)
	pr.arcs = make([]baseArc, 0, base.NumArcs())
	pr.fires = make([]uint64, len(base.States)*pr.words)
	for s, out := range base.Out {
		pr.first[s] = int32(len(pr.arcs))
		for k, a := range out {
			t := trans[s][k]
			pr.arcs = append(pr.arcs, baseArc{arc: arc{to: int32(a.To), sig: int8(a.Event.Sig)}, trans: int32(t)})
			pr.fires[s*pr.words+t/64] |= 1 << uint(t%64)
		}
	}
	pr.first[len(base.States)] = int32(len(pr.arcs))
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

// xEnabled reports whether the inserted transition at p fires in base
// state s, given whether it and the other insertion are pending.
func (pr *product) xEnabled(s int, p Point, pending, otherPending bool, otherHeld []uint64) bool {
	if !p.Before {
		return pending
	}
	return !pending && has(pr.fires[s*pr.words:], p.Trans) && !(otherPending && has(otherHeld, p.Trans))
}

// pnode is one state of the product: base state s, the pending flags of
// the rise and fall insertions, and x — the inserted signal's value on the
// toggle path, its flip parity since the initial state off it.
type pnode struct {
	s    int32
	a, b bool
	x    bool
}

// productScratch is one worker's reusable exploration memory. It holds the
// candidate graph that graph explored last: state i's arcs are
// arcs[first[i]:first[i+1]] and mask[i] is E(i), the signals labelling
// them. The raw graph's states are nodes, coded by their base state and
// x's flip parity against x's initial value xInit. After dummy contraction
// (contracted) the arrays hold the contracted graph, whose states carry
// codes.
type productScratch struct {
	idx        []int32 // product state index by key, -1 when unvisited
	nodes      []pnode
	first      []int32
	arcs       []arc
	mask       []uint64
	xInit      bool
	contracted bool
	codes      []ts.Code
	// head[b] is the last mask entry of code bucket b, -1 when empty; see
	// countConflicts.
	head  []int32
	masks []maskCount
}

// maskCount counts the states of one code bucket that carry one
// excitation mask; next links the bucket's earlier entry.
type maskCount struct {
	mask            uint64
	n, next, bucket int32
}

func (pr *product) key(n pnode) int {
	k := 4*int(n.s) + boolInt(n.a)*2 + boolInt(n.b)
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
	if why := pr.graph(sc, r, f); why != none {
		return verdict{reason: why}
	}
	persistent, deadlockFree := pr.properties(sc)
	return judge(persistent, deadlockFree, func() int { return pr.countConflicts(sc) }, pr.conflicts)
}

// properties reports whether the candidate graph in sc is persistent — no
// arc disables an event, by ts.Disabled on the masks of its two ends — and
// deadlock free. Its arcs are all signal edges: a spec's dummies are
// contracted before scoring.
func (pr *product) properties(sc *productScratch) (persistent, deadlockFree bool) {
	persistent, deadlockFree = true, true
	for s, from := range sc.mask {
		arcs := sc.arcs[sc.first[s]:sc.first[s+1]]
		if len(arcs) == 0 {
			deadlockFree = false
		}
		for _, a := range arcs {
			if ts.Disabled(from, sc.mask[a.to], int(a.sig), pr.inputs) != 0 {
				persistent = false
			}
		}
	}
	return persistent, deadlockFree
}

// code returns the code of state i of the candidate graph in sc.
func (pr *product) code(sc *productScratch, i int) ts.Code {
	if sc.contracted {
		return sc.codes[i]
	}
	n := sc.nodes[i]
	c := pr.base.States[n.s].Code
	if n.x != sc.xInit {
		c |= 1 << uint(pr.xSig)
	}
	return c
}

// countConflicts returns len(CSCConflicts()) of the candidate graph in sc,
// without listing or sorting pairs: the pairs of states sharing a code
// whose excitation masks — E(s) restricted to outputs and internals —
// differ. A candidate's code is a base code plus x's bit, so the states
// sharing one fall into one bucket (base code group, x's bit). On the raw
// graph a state's group is its base state's; a contracted graph keeps no
// base states, so there it is the group of its code with x's bit cleared.
// Each state adds the earlier states of its bucket whose masks differ from
// its own.
func (pr *product) countConflicts(sc *productScratch) int {
	if need := 2 * len(pr.codeGroup); len(sc.head) < need {
		sc.head = make([]int32, need)
		for i := range sc.head {
			sc.head[i] = -1
		}
	}
	xBit := ts.Code(1) << uint(pr.xSig)
	excitable := ^pr.inputs
	total := 0
	sc.masks = sc.masks[:0]
	for i, m := range sc.mask {
		var b int32
		if sc.contracted {
			c := sc.codes[i]
			b = 2*pr.codeGroup[c&^xBit] + int32(c>>uint(pr.xSig)&1)
		} else {
			n := sc.nodes[i]
			b = 2*pr.group[n.s] + int32(boolInt(n.x != sc.xInit))
		}
		m &= excitable
		seen := false
		for e := sc.head[b]; e >= 0; e = sc.masks[e].next {
			if mc := &sc.masks[e]; mc.mask != m {
				total += int(mc.n)
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

// graph explores into sc the state graph of the candidate inserting the
// new signal's rising transition at r and its falling transition at f —
// exactly what reach.BuildSG and ts.ContractDummies make of
// InsertSignalAt's STG, up to state keys and arc names — or returns the
// reason that construction fails.
func (pr *product) graph(sc *productScratch, r, f Point) reason {
	if pr.invalid {
		return rejectInvalid
	}
	if pr.wide {
		return rejectLimit
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
	why := pr.explore(sc, r, f)
	for _, n := range sc.nodes {
		sc.idx[pr.key(n)] = -1
	}
	if why == none && pr.dummies && !pr.contract(sc) {
		why = rejectInvalid
	}
	return why
}

// explore runs the breadth-first token game of the candidate on the
// product, firing in the candidate's transition order: the base
// transitions, then x+, then x-.
func (pr *product) explore(sc *productScratch, r, f Point) reason {
	rHeld, fHeld := pr.heldBy(r), pr.heldBy(f)
	sc.first, sc.arcs, sc.mask, sc.contracted = sc.first[:0], sc.arcs[:0], sc.mask[:0], false
	sc.nodes = append(sc.nodes[:0], pnode{s: int32(pr.base.Initial)})
	sc.idx[pr.key(sc.nodes[0])] = 0
	// Off the toggle path x's initial value and the consistency verdict
	// come from labeling the finished graph, after any unsafety or state
	// cap failure of the exploration.
	var xKnown, xInit, inconsistentX bool
	visit := func(n pnode) (int32, bool) {
		k := pr.key(n)
		if i := sc.idx[k]; i >= 0 {
			if !pr.toggle && sc.nodes[i].x != n.x {
				inconsistentX = true
			}
			return i, true
		}
		if len(sc.nodes) >= pr.maxStates {
			return 0, false
		}
		i := int32(len(sc.nodes))
		sc.idx[k] = i
		sc.nodes = append(sc.nodes, n)
		return i, true
	}
	// fireX fires x+ (rise) or x- from n into next: on the toggle path the
	// edge must match x's value; off it, the edge fixes x's initial value.
	fireX := func(n, next pnode, rise bool) reason {
		if pr.toggle {
			if n.x == rise {
				return rejectInconsistent
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
			return rejectLimit
		}
		sc.arcs = append(sc.arcs, arc{to: to, sig: pr.xSig})
		return none
	}
	xBit := uint64(1) << uint(pr.xSig)
	for head := 0; head < len(sc.nodes); head++ {
		n := sc.nodes[head]
		sc.first = append(sc.first, int32(len(sc.arcs)))
		var mask uint64
		for _, a := range pr.arcs[pr.first[n.s]:pr.first[n.s+1]] {
			t := int(a.trans)
			next := pnode{s: a.to, a: n.a, b: n.b, x: n.x}
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
					return rejectUnsafe // a second token behind t
				}
				next.a = true
			}
			if !f.Before && t == f.Trans {
				if n.b {
					return rejectUnsafe
				}
				next.b = true
			}
			to, ok := visit(next)
			if !ok {
				return rejectLimit
			}
			sc.arcs = append(sc.arcs, arc{to: to, sig: a.sig})
			if a.sig >= 0 {
				mask |= 1 << uint(a.sig)
			}
		}
		// x+ then x-. Inserted after t, x± fires from its splice place;
		// inserted before t, it takes over t's preset, so it fires where t
		// is enabled in the base, it is not already pending and the other
		// insertion holds none of that preset.
		if pr.xEnabled(int(n.s), r, n.a, n.b, fHeld) {
			if why := fireX(n, pnode{s: n.s, a: r.Before, b: n.b}, true); why != none {
				return why
			}
			mask |= xBit
		}
		if pr.xEnabled(int(n.s), f, n.b, n.a, rHeld) {
			if why := fireX(n, pnode{s: n.s, a: n.a, b: f.Before}, false); why != none {
				return why
			}
			mask |= xBit
		}
		sc.mask = append(sc.mask, mask)
	}
	sc.first = append(sc.first, int32(len(sc.arcs)))
	if inconsistentX {
		return rejectInconsistent
	}
	sc.xInit = xInit
	return none
}

// contract replaces the raw candidate graph in sc by its dummy
// contraction, ts.ContractDummies' on the graph assembled as a ts.SG; false
// when contraction fails. Only specs with dummies pay for the assembly.
// ContractDummies reads signal arcs by signal and direction and dummy arcs
// only as dummies, so the assembled events carry no names.
func (pr *product) contract(sc *productScratch) bool {
	raw := &ts.SG{
		Signals: pr.signals,
		States:  make([]ts.State, len(sc.mask)),
		Out:     make([][]ts.Arc, len(sc.mask)),
	}
	for i := range raw.States {
		code := pr.code(sc, i)
		raw.States[i].Code = code
		for _, a := range sc.arcs[sc.first[i]:sc.first[i+1]] {
			ev := ts.Event{Sig: int(a.sig), Dir: stg.Rise}
			if a.sig >= 0 && code.Bit(int(a.sig)) {
				ev.Dir = stg.Fall
			}
			raw.Out[i] = append(raw.Out[i], ts.Arc{Event: ev, To: int(a.to)})
		}
	}
	c, err := ts.ContractDummies(raw)
	if err != nil {
		return false
	}
	sc.first, sc.arcs, sc.mask, sc.codes = sc.first[:0], sc.arcs[:0], sc.mask[:0], sc.codes[:0]
	for i, out := range c.Out {
		sc.first = append(sc.first, int32(len(sc.arcs)))
		var mask uint64
		for _, a := range out { // signal arcs only
			sc.arcs = append(sc.arcs, arc{to: int32(a.To), sig: int8(a.Event.Sig)})
			mask |= 1 << uint(a.Event.Sig)
		}
		sc.mask = append(sc.mask, mask)
		sc.codes = append(sc.codes, c.States[i].Code)
	}
	sc.first = append(sc.first, int32(len(sc.arcs)))
	sc.contracted = true
	return true
}
