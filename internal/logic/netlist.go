package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/boolmin"
	"repro/internal/stg"
)

// GateKind selects the evaluation semantics of a gate.
type GateKind int

const (
	// Comb is a combinational (atomic complex) gate: out = F(v).
	Comb GateKind = iota
	// CElem is a generalized C-element: out rises when Set(v), falls when
	// Reset(v), holds otherwise. Set and Reset must never be true together
	// in reachable states (checked by the verifier).
	CElem
	// RSLatch is a reset-dominant set/reset latch: Reset wins when both
	// networks are active (the Figure 8b architecture).
	RSLatch
	// MutexHalf is one grant output of a mutual-exclusion element
	// (Section 1.5: non-persistent choices "cannot be implemented without
	// hazards unless special mutual exclusion elements (arbiters) are
	// used"). It evaluates like a combinational gate — typically
	// g1 = r1 ∧ ¬g2 — but the speed-independence verifier exempts it from
	// the semimodularity check: losing an arbitration race is legal for a
	// mutex, and metastability is resolved internally by the element.
	MutexHalf
)

func (k GateKind) String() string {
	switch k {
	case Comb:
		return "comb"
	case CElem:
		return "C"
	case RSLatch:
		return "RS"
	case MutexHalf:
		return "mutex"
	}
	return "?"
}

// Gate drives one signal of a netlist. Functions are covers over the
// netlist's signal space.
type Gate struct {
	Kind   GateKind
	Output int           // signal index
	F      boolmin.Cover // Comb only
	Set    boolmin.Cover // CElem/RSLatch
	Reset  boolmin.Cover // CElem/RSLatch
}

// Netlist is a gate-level circuit. Signals lists every wire; the first
// signals typically mirror the specification's signals (inputs driven by the
// environment, outputs/internals driven by gates), and decomposition may add
// wires that exist only in the implementation (e.g. map0 in Figure 9).
type Netlist struct {
	Name    string
	Signals []string
	Kinds   []stg.Kind // Input signals have no gate; all others need one
	Gates   []Gate
}

// SignalIndex returns the index of the named signal, or -1.
func (nl *Netlist) SignalIndex(name string) int {
	for i, s := range nl.Signals {
		if s == name {
			return i
		}
	}
	return -1
}

// AddSignal appends a wire and returns its index. Duplicate names panic:
// netlists are built from validated state graphs whose signal names are
// unique, so a collision is a construction bug.
func (nl *Netlist) AddSignal(name string, kind stg.Kind) int {
	if nl.SignalIndex(name) >= 0 {
		panic(fmt.Sprintf("logic: duplicate netlist signal %q", name))
	}
	nl.Signals = append(nl.Signals, name)
	nl.Kinds = append(nl.Kinds, kind)
	return len(nl.Signals) - 1
}

// GateFor returns the gate driving signal idx, or nil.
func (nl *Netlist) GateFor(idx int) *Gate {
	for i := range nl.Gates {
		if nl.Gates[i].Output == idx {
			return &nl.Gates[i]
		}
	}
	return nil
}

// Next computes the value signal idx is driven towards under input vector v
// (bit i of v = value of signal i). For input signals it returns the current
// value (the environment drives them).
func (nl *Netlist) Next(v uint64, idx int) bool {
	if g := nl.GateFor(idx); g != nil {
		return g.Next(v)
	}
	return v&(1<<uint(idx)) != 0
}

// Next computes the value the gate drives its output towards under v.
func (g *Gate) Next(v uint64) bool {
	cur := v&(1<<uint(g.Output)) != 0
	switch g.Kind {
	case Comb, MutexHalf:
		return g.F.Eval(v)
	case CElem:
		set, reset := g.Set.Eval(v), g.Reset.Eval(v)
		switch {
		case set && !reset:
			return true
		case reset && !set:
			return false
		default:
			return cur
		}
	case RSLatch:
		if g.Reset.Eval(v) {
			return false
		}
		if g.Set.Eval(v) {
			return true
		}
		return cur
	}
	return cur
}

// Excited reports whether the gate driving idx wants to switch under v.
func (nl *Netlist) Excited(v uint64, idx int) bool {
	cur := v&(1<<uint(idx)) != 0
	return nl.Next(v, idx) != cur
}

// ExcitedMask returns the signals whose gates want to switch under v, one
// bit per signal, in one pass over Gates. Inputs are never excited.
func (nl *Netlist) ExcitedMask(v uint64) uint64 {
	var mask uint64
	for i := range nl.Gates {
		g := &nl.Gates[i]
		bit := uint64(1) << uint(g.Output)
		if g.Next(v) != (v&bit != 0) {
			mask |= bit
		}
	}
	return mask
}

// Validate checks every non-input signal has exactly one driver and every
// gate function stays within the signal space.
func (nl *Netlist) Validate() error {
	drivers := make([]int, len(nl.Signals))
	for _, g := range nl.Gates {
		if g.Output < 0 || g.Output >= len(nl.Signals) {
			return fmt.Errorf("logic: gate drives out-of-range signal %d", g.Output)
		}
		drivers[g.Output]++
		for _, cv := range []boolmin.Cover{g.F, g.Set, g.Reset} {
			if cv.N != 0 && cv.N != len(nl.Signals) {
				return fmt.Errorf("logic: gate for %s has cover over %d variables, want %d",
					nl.Signals[g.Output], cv.N, len(nl.Signals))
			}
		}
	}
	for i, k := range nl.Kinds {
		switch {
		case k == stg.Input && drivers[i] != 0:
			return fmt.Errorf("logic: input %s must not have a driver", nl.Signals[i])
		case k != stg.Input && drivers[i] != 1:
			return fmt.Errorf("logic: signal %s has %d drivers, want 1", nl.Signals[i], drivers[i])
		}
	}
	return nil
}

// MaxFanIn returns the largest gate fan-in. For combinational gates this is
// the support of F; for latch gates the set and reset networks are separate
// stacks, so each counts on its own.
func (nl *Netlist) MaxFanIn() int {
	m := 0
	for _, g := range nl.Gates {
		for _, cv := range []boolmin.Cover{g.F, g.Set, g.Reset} {
			if n := len(cv.Support()); n > m {
				m = n
			}
		}
	}
	return m
}

// LiteralCount is the area estimate: total literals over all gate networks.
func (nl *Netlist) LiteralCount() int {
	n := 0
	for _, g := range nl.Gates {
		n += g.F.Literals() + g.Set.Literals() + g.Reset.Literals()
	}
	return n
}

// Equations renders every gate as a named equation, sorted by output name —
// the printable result of synthesis (Section 3.2).
func (nl *Netlist) Equations() string {
	var lines []string
	for _, g := range nl.Gates {
		name := nl.Signals[g.Output]
		switch g.Kind {
		case Comb:
			lines = append(lines, fmt.Sprintf("%s = %s", name, g.F.Expr(nl.Signals)))
		case CElem:
			lines = append(lines, fmt.Sprintf("%s = C(set: %s, reset: %s)",
				name, g.Set.Expr(nl.Signals), g.Reset.Expr(nl.Signals)))
		case RSLatch:
			lines = append(lines, fmt.Sprintf("%s = RS(set: %s, reset: %s)",
				name, g.Set.Expr(nl.Signals), g.Reset.Expr(nl.Signals)))
		case MutexHalf:
			lines = append(lines, fmt.Sprintf("%s = MUTEX(%s)", name, g.F.Expr(nl.Signals)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// StableVector searches for initial values of gate-driven signals that make
// every gate stable given the fixed values of the base signals in init
// (typically the spec SG's initial code extended with zeros). It tries
// settling by iterated evaluation, then exhaustive search over the extra
// signals beyond nBase. Returns an error when no stable vector exists.
func (nl *Netlist) StableVector(init uint64, nBase int) (uint64, error) {
	stable := func(v uint64) bool {
		for i := range nl.Signals {
			if nl.GateFor(i) != nil && nl.Excited(v, i) {
				return false
			}
		}
		return true
	}
	extra := len(nl.Signals) - nBase
	if extra < 0 {
		return 0, fmt.Errorf("logic: netlist has fewer signals than base")
	}
	for combo := uint64(0); combo < uint64(1)<<uint(extra); combo++ {
		v := init | combo<<uint(nBase)
		// Let extra-only instabilities settle a few rounds before judging:
		// decomposition wires may need to follow their inputs.
		for round := 0; round < len(nl.Signals)+1; round++ {
			changed := false
			for i := nBase; i < len(nl.Signals); i++ {
				if nl.GateFor(i) != nil && nl.Excited(v, i) {
					v ^= 1 << uint(i)
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		if v&((uint64(1)<<uint(nBase))-1) != init&((uint64(1)<<uint(nBase))-1) {
			continue
		}
		if stable(v) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("logic: no stable initial vector extends %b", init)
}
