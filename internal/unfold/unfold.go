// Package unfold implements McMillan-style finite complete prefixes of safe
// Petri net unfoldings (Section 2.2): acyclic occurrence nets representing
// all reachable markings, often far more compact than the reachability graph
// and well suited for extracting ordering relations (causality, conflict,
// concurrency) between events.
package unfold

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/petri"
)

// Condition is an occurrence of a place.
type Condition struct {
	Place    int
	Producer int // event index, or -1 for initial conditions
	// Consumers lists the events consuming this condition (>1 = conflict).
	Consumers []int
	// Frozen marks conditions produced by cutoff events: they belong to
	// cuts but never enable further events.
	Frozen bool
}

// Event is an occurrence of a transition.
type Event struct {
	Trans  int
	Pre    []int // condition indexes
	Post   []int
	Cutoff bool
	// LocalSize is |[e]|, the size of the local configuration.
	LocalSize int
	// Mark is the marking reached by firing exactly [e].
	Mark petri.Marking
}

// Prefix is a finite complete prefix.
type Prefix struct {
	Net        *petri.Net
	Conditions []Condition
	Events     []Event
	NumCutoffs int

	// hist[e] = bitset of events causally <= e (including e).
	hist []bitset
	// co[c] = bitset of conditions concurrent with c, maintained
	// incrementally as conditions are added (see addCondition). The possible
	//-extension search asks the concurrency question for quadratically many
	// condition pairs; answering from this matrix replaces a history/conflict
	// walk that is itself linear in the prefix size.
	co []bitset
}

// Options bound the construction.
type Options struct {
	// Budget adds cancellation, and its MaxEvents tightens the default
	// cap of 1<<16 events; nil adds neither.
	Budget *budget.Budget
	// Obs is the parent observability span: the construction records an
	// "engine:unfold" child span and the unfold.* counters (events,
	// conditions, cutoffs, budget checks) into its registry. nil disables
	// observability.
	Obs *obs.Span
}

func (o Options) maxEvents() int { return o.Budget.EventLimit(1 << 16) }

// ErrEventLimit is the errors.Is anchor for event-ceiling aborts — an alias
// of budget.Sentinel(budget.Events).
var ErrEventLimit = budget.Sentinel(budget.Events)

// Build computes a finite complete prefix of the net's unfolding using
// McMillan's cutoff criterion (|[e']| < |[e]| with equal markings, or
// Mark([e]) equal to the initial marking).
//
// On an event-ceiling trip or cancellation the partial prefix built so far
// is returned alongside the typed budget error. A partial prefix is not
// complete: it under-approximates the reachable markings.
func Build(n *petri.Net, opts Options) (*Prefix, error) {
	sp := opts.Obs.Child("engine:unfold")
	u, err := build(n, opts, sp)
	if sp != nil {
		if u != nil {
			reg := sp.Registry()
			reg.Counter("unfold.events").Add(int64(len(u.Events)))
			reg.Counter("unfold.conditions").Add(int64(len(u.Conditions)))
			reg.Counter("unfold.cutoffs").Add(int64(u.NumCutoffs))
			sp.Attr("events", strconv.Itoa(len(u.Events)))
			sp.Attr("conditions", strconv.Itoa(len(u.Conditions)))
			sp.Attr("cutoffs", strconv.Itoa(u.NumCutoffs))
		}
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End()
	}
	return u, err
}

func build(n *petri.Net, opts Options, sp *obs.Span) (*Prefix, error) {
	u := &Prefix{Net: n}
	init := n.InitialMarking()
	if !init.Safe() {
		return nil, fmt.Errorf("unfold: initial marking not safe")
	}
	for p, tokens := range init {
		if tokens == 1 {
			u.Conditions = append(u.Conditions, Condition{Place: p, Producer: -1})
		}
	}
	// Initial conditions form the initial cut: pairwise concurrent. Each row
	// is the full initial cut minus the condition itself.
	full := newBitset(len(u.Conditions))
	for c := range u.Conditions {
		full.set(c)
	}
	for c := range u.Conditions {
		row := append(bitset(nil), full...)
		row[c/64] &^= 1 << uint(c%64)
		u.co = append(u.co, row)
	}

	// Marking seen table: marking key -> smallest local config size.
	seen := map[string]int{init.Key(): 0}

	type pe struct {
		trans     int
		pre       []int
		localSize int
	}
	checks := sp.Registry().Counter("unfold.budget_checks")
	var queue []pe
	addExtensions := func(newCond int) {
		// Any transition consuming the new condition's place may extend.
		place := u.Conditions[newCond].Place
		for _, t := range n.Places[place].Post {
			for _, combo := range u.matchPreset(t, newCond) {
				size := u.localSizeOf(combo) + 1
				queue = append(queue, pe{trans: t, pre: combo, localSize: size})
			}
		}
	}
	for c := range u.Conditions {
		addExtensions(c)
	}

	for len(queue) > 0 {
		// Pop the extension with the smallest local configuration: McMillan's
		// adequate order.
		best := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].localSize < queue[best].localSize {
				best = i
			}
		}
		ext := queue[best]
		queue = append(queue[:best], queue[best+1:]...)

		// The same (trans, preset) may have been enqueued twice.
		if u.duplicateEvent(ext.trans, ext.pre) {
			continue
		}
		if maxEvents := opts.maxEvents(); len(u.Events) >= maxEvents {
			return u, budget.LimitEvents(maxEvents, len(u.Events))
		}
		if opts.Budget.Hooked() || len(u.Events)%64 == 0 {
			// Event extension is heavyweight (possible-extension search is
			// quadratic), so a tighter-than-usual cancellation cadence is
			// still noise.
			checks.Inc()
			if err := opts.Budget.Check("unfold.event"); err != nil {
				return u, err
			}
		}

		// A condition is concurrent with e's post-conditions iff it is
		// concurrent with every condition of •e (preset members self-exclude:
		// no condition is concurrent with itself). Such a condition of a
		// place e produces shares a reachable cut with e's: a second token,
		// which a safe net never holds.
		inter := u.coIntersect(ext.pre)
		post := n.Transitions[ext.trans].Post
		second := -1
		inter.forEach(func(c int) {
			if p := u.Conditions[c].Place; second < 0 && slices.Contains(post, p) {
				second = p
			}
		})
		if second >= 0 {
			return u, fmt.Errorf("unfold: net not safe: firing %s puts a second token in %s",
				n.Transitions[ext.trans].Name, n.Places[second].Name)
		}

		eIdx := len(u.Events)
		ev := Event{Trans: ext.trans, Pre: append([]int(nil), ext.pre...)}
		// History bitset.
		h := newBitset(eIdx + 1)
		h.set(eIdx)
		for _, c := range ev.Pre {
			if p := u.Conditions[c].Producer; p >= 0 {
				h.or(u.hist[p])
			}
		}
		ev.LocalSize = h.count()
		// Marking of [e]: the cut before e, minus e's consumed places, plus
		// its produced ones (e's own conditions do not exist yet).
		ev.Mark = u.markOf(h)
		for _, c := range ev.Pre {
			ev.Mark[u.Conditions[c].Place]--
		}
		for _, p := range n.Transitions[ext.trans].Post {
			ev.Mark[p]++
		}
		// Cutoff?
		if prev, ok := seen[ev.Mark.Key()]; ok && prev < ev.LocalSize {
			ev.Cutoff = true
			u.NumCutoffs++
		} else if !ok {
			seen[ev.Mark.Key()] = ev.LocalSize
		} else if prev >= ev.LocalSize {
			seen[ev.Mark.Key()] = ev.LocalSize
		}
		u.Events = append(u.Events, ev)
		u.hist = append(u.hist, h)
		for _, c := range ev.Pre {
			u.Conditions[c].Consumers = append(u.Conditions[c].Consumers, eIdx)
		}
		for _, p := range post {
			cIdx := len(u.Conditions)
			u.Conditions = append(u.Conditions, Condition{Place: p, Producer: eIdx, Frozen: ev.Cutoff})
			u.Events[eIdx].Post = append(u.Events[eIdx].Post, cIdx)
			u.addCoRow(cIdx, inter, u.Events[eIdx].Post)
			if !ev.Cutoff {
				addExtensions(cIdx)
			}
		}
	}
	return u, nil
}

// matchPreset finds all co-sets of conditions matching •t that include mustUse.
func (u *Prefix) matchPreset(t, mustUse int) [][]int {
	pre := u.Net.Transitions[t].Pre
	mustPlace := u.Conditions[mustUse].Place
	found := false
	for _, p := range pre {
		if p == mustPlace {
			found = true
		}
	}
	if !found {
		return nil
	}
	// For each preset place, the candidate conditions.
	var out [][]int
	var combo []int
	var rec func(i int)
	rec = func(i int) {
		if i == len(pre) {
			// mustUse included?
			has := false
			for _, c := range combo {
				if c == mustUse {
					has = true
				}
			}
			if has {
				out = append(out, append([]int(nil), combo...))
			}
			return
		}
		p := pre[i]
		for c := range u.Conditions {
			if u.Conditions[c].Place != p || u.Conditions[c].Frozen {
				continue
			}
			// Pairwise concurrency with already chosen conditions.
			ok := true
			for _, prev := range combo {
				if !u.concurrentConds(prev, c) {
					ok = false
					break
				}
			}
			if ok {
				combo = append(combo, c)
				rec(i + 1)
				combo = combo[:len(combo)-1]
			}
		}
	}
	rec(0)
	return out
}

// coIntersect computes the set of conditions concurrent with every member of
// a co-set (an event preset). The preset's own members drop out for free: a
// condition is never concurrent with itself.
func (u *Prefix) coIntersect(pre []int) bitset {
	out := append(bitset(nil), u.co[pre[0]]...)
	for _, d := range pre[1:] {
		out.and(u.co[d])
	}
	return out
}

// addCoRow installs the concurrency row of a freshly created condition c:
// the preset intersection plus c's siblings (post-conditions of one event
// coexist in the cut it produces), with the symmetric bits mirrored into the
// existing rows.
func (u *Prefix) addCoRow(c int, inter bitset, siblings []int) {
	row := append(bitset(nil), inter...)
	for _, s := range siblings {
		if s != c {
			row.set(s)
		}
	}
	row.forEach(func(b int) { u.co[b].set(c) })
	u.co = append(u.co, row)
}

// concurrentConds reports whether two distinct conditions can coexist in a
// reachable cut: no causality and no conflict between them. Answered from
// the incrementally maintained matrix; concurrentCondsSlow is the
// definitional oracle it is tested against.
func (u *Prefix) concurrentConds(a, b int) bool {
	return a != b && u.co[a].get(b)
}

// concurrentCondsSlow decides concurrency from first principles: walk the
// histories for causality, then scan every condition for a conflict between
// the two histories. Linear in the prefix size per query — kept as the test
// oracle for the cached matrix.
func (u *Prefix) concurrentCondsSlow(a, b int) bool {
	if a == b {
		return false
	}
	ha := u.condHist(a)
	hb := u.condHist(b)
	// Causality: a < b iff some consumer of a is in b's history; and vice
	// versa.
	for _, e := range u.Conditions[a].Consumers {
		if hb.get(e) {
			return false
		}
	}
	for _, e := range u.Conditions[b].Consumers {
		if ha.get(e) {
			return false
		}
	}
	// Conflict: two distinct events in the histories consuming the same
	// condition.
	for c := range u.Conditions {
		var inA, inB []int
		for _, e := range u.Conditions[c].Consumers {
			if ha.get(e) {
				inA = append(inA, e)
			}
			if hb.get(e) {
				inB = append(inB, e)
			}
		}
		for _, ea := range inA {
			for _, eb := range inB {
				if ea != eb {
					return false
				}
			}
		}
	}
	return true
}

// condHist returns the event history of a condition (its producer's closed
// history, or empty for initial conditions).
func (u *Prefix) condHist(c int) bitset {
	p := u.Conditions[c].Producer
	if p < 0 {
		return newBitset(0)
	}
	return u.hist[p]
}

// localSizeOf computes |[e]| - 1 for a prospective event with the given
// preset: the union of the preset's histories.
func (u *Prefix) localSizeOf(pre []int) int {
	h := newBitset(len(u.Events))
	for _, c := range pre {
		if p := u.Conditions[c].Producer; p >= 0 {
			h.or(u.hist[p])
		}
	}
	return h.count()
}

func (u *Prefix) duplicateEvent(t int, pre []int) bool {
	sorted := append([]int(nil), pre...)
	sort.Ints(sorted)
	for _, e := range u.Events {
		if e.Trans != t || len(e.Pre) != len(sorted) {
			continue
		}
		es := append([]int(nil), e.Pre...)
		sort.Ints(es)
		same := true
		for i := range es {
			if es[i] != sorted[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// markOf computes the marking reached by firing exactly the events of h.
func (u *Prefix) markOf(h bitset) petri.Marking {
	m := make(petri.Marking, len(u.Net.Places))
	inConfig := func(e int) bool { return e >= 0 && h.get(e) }
	for c := range u.Conditions {
		prod := u.Conditions[c].Producer
		produced := prod == -1 || inConfig(prod)
		if !produced {
			continue
		}
		consumed := false
		for _, e := range u.Conditions[c].Consumers {
			if inConfig(e) {
				consumed = true
				break
			}
		}
		if !consumed {
			m[u.Conditions[c].Place]++
		}
	}
	return m
}

// Causal reports e1 < e2 in the prefix.
func (u *Prefix) Causal(e1, e2 int) bool {
	return e1 != e2 && u.hist[e2].get(e1)
}

// Conflict reports e1 # e2: their histories branch on a shared condition.
func (u *Prefix) Conflict(e1, e2 int) bool {
	if e1 == e2 || u.Causal(e1, e2) || u.Causal(e2, e1) {
		return false
	}
	h1, h2 := u.hist[e1], u.hist[e2]
	for c := range u.Conditions {
		var inA, inB []int
		for _, e := range u.Conditions[c].Consumers {
			if h1.get(e) {
				inA = append(inA, e)
			}
			if h2.get(e) {
				inB = append(inB, e)
			}
		}
		for _, ea := range inA {
			for _, eb := range inB {
				if ea != eb {
					return true
				}
			}
		}
	}
	return false
}

// Concurrent reports e1 co e2: no order and no conflict.
func (u *Prefix) Concurrent(e1, e2 int) bool {
	return e1 != e2 && !u.Causal(e1, e2) && !u.Causal(e2, e1) && !u.Conflict(e1, e2)
}

// ReachableMarkings enumerates the markings of all reachable cuts of the
// prefix (token game on the acyclic occurrence net), projected onto the
// original net. For a complete prefix this equals the net's reachability
// set; it is the correctness oracle used in tests.
func (u *Prefix) ReachableMarkings() map[string]bool {
	// Occurrence-net state: marking over conditions.
	init := make(petri.Marking, len(u.Conditions))
	for c := range u.Conditions {
		if u.Conditions[c].Producer == -1 {
			init[c] = 1
		}
	}
	seen := map[string]bool{}
	out := map[string]bool{}
	var project func(m petri.Marking) string
	project = func(m petri.Marking) string {
		pm := make(petri.Marking, len(u.Net.Places))
		for c, v := range m {
			if v > 0 {
				pm[u.Conditions[c].Place]++
			}
		}
		return pm.Key()
	}
	stack := []petri.Marking{init}
	seen[init.Key()] = true
	out[project(init)] = true
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := range u.Events {
			ok := true
			for _, c := range u.Events[e].Pre {
				if m[c] == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			next := m.Clone()
			for _, c := range u.Events[e].Pre {
				next[c]--
			}
			for _, c := range u.Events[e].Post {
				next[c]++
			}
			if !seen[next.Key()] {
				seen[next.Key()] = true
				out[project(next)] = true
				stack = append(stack, next)
			}
		}
	}
	return out
}

// Stats summarizes the prefix size.
func (u *Prefix) Stats() (conditions, events, cutoffs int) {
	return len(u.Conditions), len(u.Events), u.NumCutoffs
}

// bitset is a compact grow-on-write bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64+1) }

func (b *bitset) ensure(i int) {
	for len(*b) <= i/64 {
		*b = append(*b, 0)
	}
}

func (b *bitset) set(i int) {
	b.ensure(i)
	(*b)[i/64] |= 1 << uint(i%64)
}

func (b bitset) get(i int) bool {
	if i/64 >= len(b) {
		return false
	}
	return b[i/64]&(1<<uint(i%64)) != 0
}

func (b *bitset) or(o bitset) {
	b.ensure(len(o)*64 - 1)
	for i, w := range o {
		(*b)[i] |= w
	}
}

// and intersects b with o in place.
func (b bitset) and(o bitset) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// forEach calls f with each set bit's index in increasing order.
func (b bitset) forEach(f func(i int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			f(w*64 + bits.TrailingZeros64(word))
		}
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
