package ts

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/stg"
)

// This file implements the implementability checks of Section 2.1:
// consistency is established during SG construction (package reach);
// here live complete state coding (USC/CSC) and persistency.

// CodeConflict is a pair of distinct states sharing a binary code.
type CodeConflict struct {
	Code   Code
	A, B   int
	Signal int // for CSC conflicts: a non-input signal with differing excitation; -1 for pure USC
}

func (c CodeConflict) String() string {
	return fmt.Sprintf("states %d/%d share code %b (signal %d)", c.A, c.B, uint64(c.Code), c.Signal)
}

// USCConflicts returns all pairs of distinct states with equal binary codes:
// violations of the Unique State Coding property.
func (g *SG) USCConflicts() []CodeConflict {
	var out []CodeConflict
	for _, group := range g.groupsSorted() {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				out = append(out, CodeConflict{
					Code: g.States[group[i]].Code, A: group[i], B: group[j], Signal: -1,
				})
			}
		}
	}
	return out
}

// CSCConflicts returns the USC conflict pairs in which some non-input signal
// has different excitation in the two states — the conflicts that make the
// next-state functions ill-defined ("completeness of state encoding",
// Section 2.1). Each conflict records one witnessing signal.
func (g *SG) CSCConflicts() []CodeConflict {
	var out []CodeConflict
	for _, group := range g.groupsSorted() {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if sig, ok := g.cscWitness(a, b); ok {
					out = append(out, CodeConflict{
						Code: g.States[a].Code, A: a, B: b, Signal: sig,
					})
				}
			}
		}
	}
	return out
}

// HasCSC reports whether the Complete State Coding property holds: the
// states sharing a code all excite the same non-input signals. It compares
// each state's excitation mask with the first of its code and stops at the
// first code whose states carry two masks; it lists no pairs.
func (g *SG) HasCSC() bool { return g.hasCSC(g.eventMasks()) }

// hasCSC is HasCSC on the states' event masks, restricted here to the
// non-input signals: each state's ExcitedMask.
func (g *SG) hasCSC(masks []uint64) bool {
	excitable := ^g.inputMask()
	first := make(map[Code]uint64, len(g.States))
	for s, st := range g.States {
		mask := masks[s] & excitable
		if prev, dup := first[st.Code]; !dup {
			first[st.Code] = mask
		} else if prev != mask {
			return false
		}
	}
	return true
}

// HasUSC reports whether the Unique State Coding property holds. It stops
// at the first code two states share.
func (g *SG) HasUSC() bool {
	seen := map[Code]struct{}{}
	for _, s := range g.States {
		if _, dup := seen[s.Code]; dup {
			return false
		}
		seen[s.Code] = struct{}{}
	}
	return true
}

// cscWitness returns the lowest non-input signal whose excitation differs
// between states a and b.
func (g *SG) cscWitness(a, b int) (int, bool) {
	diff := g.ExcitedMask(a) ^ g.ExcitedMask(b)
	if diff == 0 {
		return -1, false
	}
	return bits.TrailingZeros64(diff), true
}

// ExcitedMask returns the output and internal signals that label an arc
// leaving state s, one bit per signal. Two states of one code form a CSC
// conflict exactly when their masks differ.
func (g *SG) ExcitedMask(s int) uint64 {
	var mask uint64
	for _, a := range g.Out[s] {
		if a.Event.Sig < 0 {
			continue
		}
		if k := g.Signals[a.Event.Sig].Kind; k == stg.Output || k == stg.Internal {
			mask |= 1 << uint(a.Event.Sig)
		}
	}
	return mask
}

// eventMasks returns E(s) for every state s: the signals of any kind that
// label an arc leaving s, one bit per signal. Dummy arcs add no bit.
func (g *SG) eventMasks() []uint64 {
	masks := make([]uint64, len(g.Out))
	for s, arcs := range g.Out {
		for _, a := range arcs {
			if a.Event.Sig >= 0 {
				masks[s] |= 1 << uint(a.Event.Sig)
			}
		}
	}
	return masks
}

// inputMask returns g's input signals, one bit per signal.
func (g *SG) inputMask() uint64 {
	var mask uint64
	for i, sig := range g.Signals {
		if sig.Kind == stg.Input {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// groupsSorted returns code-sharing groups of size >= 2, each ascending, in
// deterministic order (by smallest member). States are sorted by (code,
// index), so every group is a run of the sorted order.
func (g *SG) groupsSorted() [][]int {
	type codeIndex struct {
		code Code
		i    int
	}
	order := make([]codeIndex, len(g.States))
	for i, s := range g.States {
		order[i] = codeIndex{s.Code, i}
	}
	slices.SortFunc(order, func(a, b codeIndex) int {
		if c := cmp.Compare(a.code, b.code); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	var groups [][]int
	members := make([]int, 0, len(order))
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].code == order[i].code {
			j++
		}
		if j-i >= 2 {
			start := len(members)
			for _, o := range order[i:j] {
				members = append(members, o.i)
			}
			groups = append(groups, members[start:len(members):len(members)])
		}
		i = j
	}
	slices.SortFunc(groups, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return groups
}

// PersistencyViolation records event e being disabled by event u firing in
// state S: after u, no arc labeled like e leaves the successor.
type PersistencyViolation struct {
	State     int
	Disabled  Event // the event that was enabled and got disabled
	Disabler  Event // the event whose firing disabled it
	Successor int
}

func (v PersistencyViolation) String() string {
	return fmt.Sprintf("state %d: %s disables %s", v.State, v.Disabler, v.Disabled)
}

// PersistencyViolations checks the two persistency conditions of Section 2.1:
// (a) no non-input signal transition may be disabled by any other signal
// transition (would cause hazards at gate outputs), and (b) no input signal
// transition may be disabled by a non-input transition (would cause hazards
// at the device inputs). Input-input conflicts are allowed: they model
// choices made by the environment.
func (g *SG) PersistencyViolations() []PersistencyViolation {
	var out []PersistencyViolation
	for s, arcs := range g.Out {
		for _, e := range arcs {
			for _, u := range arcs {
				if sameEvent(e.Event, u.Event) {
					continue
				}
				eInput := g.isInputEvent(e.Event)
				uInput := g.isInputEvent(u.Event)
				if eInput && uInput {
					continue // environment's own choice
				}
				if eInput && !uInput {
					// Condition (b): u (non-input) must not disable input e.
					if !g.stillEnabled(u.To, e.Event) {
						out = append(out, PersistencyViolation{
							State: s, Disabled: e.Event, Disabler: u.Event, Successor: u.To,
						})
					}
					continue
				}
				// e is non-input: condition (a), nothing may disable it.
				if !g.stillEnabled(u.To, e.Event) {
					out = append(out, PersistencyViolation{
						State: s, Disabled: e.Event, Disabler: u.Event, Successor: u.To,
					})
				}
			}
		}
	}
	return out
}

// IsPersistent reports whether the SG satisfies both persistency
// conditions, without listing violations: it reads every arc once against
// the event masks E(s) of its two ends (Disabled), plus a name check in the
// states that a dummy arc leaves. On a consistent state graph — every graph
// reach.BuildSG, sim.StateGraph and ContractDummies return — it reports
// exactly what PersistencyViolations does, which keeps the list for
// witnesses and as this rule's oracle.
func (g *SG) IsPersistent() bool { return g.persistent(g.eventMasks()) }

func (g *SG) persistent(masks []uint64) bool {
	inputs := g.inputMask()
	for s, arcs := range g.Out {
		dummy := false
		for _, u := range arcs {
			if Disabled(masks[s], masks[u.To], u.Event.Sig, inputs) != 0 {
				return false
			}
			dummy = dummy || u.Event.Sig < 0
		}
		if dummy && !g.dummiesPersist(arcs) {
			return false
		}
	}
	return true
}

// Disabled returns the signal events that an arc s → s' firing signal u
// disables, one bit per signal: from is E(s) and to is E(s'), the signals
// labelling the arcs that leave s and s'. u < 0 is a dummy, which counts as
// a non-input disabler. The arc breaks persistency exactly when the result
// is not 0.
//
// The rule is exact on a consistent state graph, where a state's code fixes
// the direction in which each signal can be excited there: an arc firing a+
// leaves only states whose a bit is 0. Firing u leaves every other signal's
// code bit unchanged, so an event e of another signal enabled at s is still
// enabled at s' exactly when e's signal is in E(s'). Every signal of E(s)
// but u's own is such an e (u's own signal is excited in u's direction only),
// and when u is an input the other inputs are exempt: choices between inputs
// belong to the environment. Dummy events compare by name, not by signal;
// IsPersistent checks them apart.
func Disabled(from, to uint64, u int, inputs uint64) uint64 {
	if u < 0 {
		return from &^ to
	}
	bit := uint64(1) << uint(u)
	if inputs&bit != 0 {
		from &^= inputs
	}
	return from &^ to &^ bit
}

// dummiesPersist checks the dummy events of one state's arcs: a dummy e
// enabled there must be followed by an event of e's name wherever another
// arc u leads, unless u is e itself. Dummies are named after their
// transitions, which no signal event shares, so a dummy disabler of a
// signal event needs no name check: Disabled covers it.
func (g *SG) dummiesPersist(arcs []Arc) bool {
	for _, e := range arcs {
		if e.Event.Sig >= 0 {
			continue
		}
		for _, u := range arcs {
			if u.Event.Name != e.Event.Name && !g.stillEnabled(u.To, e.Event) {
				return false
			}
		}
	}
	return true
}

func (g *SG) isInputEvent(e Event) bool {
	return e.Sig >= 0 && g.Signals[e.Sig].Kind == stg.Input
}

func (g *SG) stillEnabled(state int, e Event) bool {
	for _, a := range g.Out[state] {
		if sameEvent(a.Event, e) {
			return true
		}
	}
	return false
}

func sameEvent(a, b Event) bool {
	if a.Sig < 0 || b.Sig < 0 {
		return a.Name == b.Name
	}
	return a.Sig == b.Sig && a.Dir == b.Dir
}

// Implementability aggregates the Section 2.1 property suite.
type Implementability struct {
	Consistent   bool // established by construction (reach.BuildSG)
	USC          bool
	CSC          bool
	Persistent   bool
	DeadlockFree bool
}

// OK reports whether the SG can be implemented as a speed-independent
// circuit (with USC relaxed: only CSC is required for well-defined logic).
func (r Implementability) OK() bool {
	return r.Consistent && r.CSC && r.Persistent && r.DeadlockFree
}

func (r Implementability) String() string {
	flag := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "consistent=%s usc=%s csc=%s persistent=%s deadlock-free=%s",
		flag(r.Consistent), flag(r.USC), flag(r.CSC), flag(r.Persistent), flag(r.DeadlockFree))
	return b.String()
}

// CheckImplementability runs the full Section 2.1 property suite on a
// consistently-built SG. It computes each state's event mask once, for
// persistency and, restricted to the non-input signals, for CSC.
func (g *SG) CheckImplementability() Implementability {
	masks := g.eventMasks()
	return Implementability{
		Consistent:   true, // reach.BuildSG fails otherwise
		USC:          g.HasUSC(),
		CSC:          g.hasCSC(masks),
		Persistent:   g.persistent(masks),
		DeadlockFree: len(g.Deadlocks()) == 0,
	}
}
