// Package ts implements transition systems and state graphs. A transition
// system is the abstract state graph generated by the token game (Section
// 1.4 of the paper); a state graph additionally labels every state with a
// binary code of signal values, which is the basis of logic synthesis.
package ts

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stg"
)

// Code is a binary code of up to 64 signal values, bit i = value of signal i.
type Code uint64

// Bit returns the value of signal i.
func (c Code) Bit(i int) bool { return c&(1<<uint(i)) != 0 }

// Set returns c with signal i set to v.
func (c Code) Set(i int, v bool) Code {
	if v {
		return c | (1 << uint(i))
	}
	return c &^ (1 << uint(i))
}

// Flip returns c with signal i toggled.
func (c Code) Flip(i int) Code { return c ^ (1 << uint(i)) }

// String renders the code over n signals, MSB = signal 0, e.g. "10110".
func (c Code) String(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if c.Bit(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Event labels an arc of a state graph: a signal edge, or a dummy event
// (Sig < 0) identified only by name.
type Event struct {
	Sig  int
	Dir  stg.Dir
	Name string
}

func (e Event) String() string { return e.Name }

// Arc is an outgoing edge of a state.
type Arc struct {
	Event Event
	To    int
}

// State is one state of the state graph.
type State struct {
	// Code is the binary signal vector of the state.
	Code Code
	// Key identifies the underlying marking (or other generator state).
	Key string
}

// SG is a state graph: a transition system whose states carry binary codes.
type SG struct {
	Name    string
	Signals []stg.Signal
	States  []State
	// Out[i] lists the outgoing arcs of state i, sorted by event name.
	Out [][]Arc
	// Initial is the index of the initial state.
	Initial int
	// FormatKey renders a state's Key for display, e.g. "{p0,p4}", so that
	// labels are formatted only when a renderer asks; state-graph
	// constructors set it. nil renders the Key as is.
	FormatKey func(key string) string
}

// Label renders state s's generator state, e.g. its marking "{p0,p4}".
func (g *SG) Label(s int) string {
	if g.FormatKey == nil {
		return g.States[s].Key
	}
	return g.FormatKey(g.States[s].Key)
}

// NumStates returns the number of states.
func (g *SG) NumStates() int { return len(g.States) }

// NumArcs returns the total number of arcs.
func (g *SG) NumArcs() int {
	n := 0
	for _, a := range g.Out {
		n += len(a)
	}
	return n
}

// SignalIndex returns the index of the named signal, or -1.
func (g *SG) SignalIndex(name string) int {
	for i, s := range g.Signals {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Excited reports whether signal sig is excited (an edge of sig labels some
// outgoing arc) in state s, and the direction if so.
func (g *SG) Excited(s, sig int) (stg.Dir, bool) {
	for _, a := range g.Out[s] {
		if a.Event.Sig == sig {
			return a.Event.Dir, true
		}
	}
	return 0, false
}

// In computes the reverse adjacency: for each state, the list of (from,
// event) pairs entering it.
func (g *SG) In() [][]Arc {
	in := make([][]Arc, len(g.States))
	for s, arcs := range g.Out {
		for _, a := range arcs {
			in[a.To] = append(in[a.To], Arc{Event: a.Event, To: s})
		}
	}
	return in
}

// StatesByCode groups state indexes by binary code.
func (g *SG) StatesByCode() map[Code][]int {
	m := make(map[Code][]int)
	for i, s := range g.States {
		m[s.Code] = append(m[s.Code], i)
	}
	return m
}

// DistinctCodes returns the number of distinct binary codes.
func (g *SG) DistinctCodes() int { return len(g.StatesByCode()) }

// Deadlocks returns all states with no outgoing arcs.
func (g *SG) Deadlocks() []int {
	var out []int
	for i, arcs := range g.Out {
		if len(arcs) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// HasDummy reports whether any arc carries a dummy event.
func (g *SG) HasDummy() bool {
	for _, arcs := range g.Out {
		for _, a := range arcs {
			if a.Event.Sig < 0 {
				return true
			}
		}
	}
	return false
}

// String summarizes the SG.
func (g *SG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sg %s: %d states, %d arcs, %d signals\n",
		g.Name, g.NumStates(), g.NumArcs(), len(g.Signals))
	return b.String()
}

// Dump renders every state and arc, deterministic across runs; useful in
// tests and golden files.
func (g *SG) Dump() string {
	var b strings.Builder
	n := len(g.Signals)
	for i, s := range g.States {
		mark := " "
		if i == g.Initial {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s s%-3d %s %s\n", mark, i, s.Code.String(n), g.Label(i))
		arcs := append([]Arc(nil), g.Out[i]...)
		sort.Slice(arcs, func(x, y int) bool { return arcs[x].Event.Name < arcs[y].Event.Name })
		for _, a := range arcs {
			fmt.Fprintf(&b, "      --%s--> s%d\n", a.Event.Name, a.To)
		}
	}
	return b.String()
}
