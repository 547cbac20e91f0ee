package ts

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stg"
)

// ASCIIWaveform renders the signal values along a state path as a textual
// timing diagram (the Figure 2 view of a trace):
//
//	DSr    __/~~~~~~~~\____
//	LDS    ____/~~~~\______
//
// Each step of the path contributes two columns; a rising edge prints '/',
// a falling edge '\'.
func (g *SG) ASCIIWaveform(path []int) string {
	codes := make([]Code, len(path))
	for i, s := range path {
		codes[i] = g.States[s].Code
	}
	return RenderWaveform(g.Signals, codes)
}

// RenderWaveform renders a sequence of signal codes as a textual timing
// diagram — the engine behind SG.ASCIIWaveform, shared with the property
// checker's counterexample traces, which carry codes but no state graph.
func RenderWaveform(signals []stg.Signal, codes []Code) string {
	if len(codes) == 0 {
		return ""
	}
	nameW := 0
	for _, s := range signals {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	for sig, s := range signals {
		fmt.Fprintf(&b, "%-*s ", nameW, s.Name)
		prev := codes[0].Bit(sig)
		for step, c := range codes {
			cur := c.Bit(sig)
			if step > 0 && cur != prev {
				if cur {
					b.WriteByte('/')
				} else {
					b.WriteByte('\\')
				}
			} else {
				b.WriteString(level(cur))
			}
			b.WriteString(level(cur))
			prev = cur
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func level(high bool) string {
	if high {
		return "~"
	}
	return "_"
}

// Cycle returns a path following arcs from the initial state until a state
// repeats — one full cycle of a (deterministic prefix of the) behaviour,
// preferring the first arc of each state. Useful for rendering waveforms of
// cyclic specifications.
func (g *SG) Cycle() []int {
	seen := map[int]bool{}
	var path []int
	s := g.Initial
	for !seen[s] {
		seen[s] = true
		path = append(path, s)
		if len(g.Out[s]) == 0 {
			break
		}
		s = g.Out[s][0].To
	}
	path = append(path, s)
	return path
}

// WriteDOT renders the state graph in Graphviz DOT format: states labeled
// with their binary codes (and markings), arcs with event names. States
// sharing a code — coding conflicts — are highlighted.
func (g *SG) WriteDOT(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=ellipse];\n", g.Name)
	shared := map[Code]bool{}
	for code, states := range g.StatesByCode() {
		if len(states) > 1 {
			shared[code] = true
		}
	}
	n := len(g.Signals)
	for i, s := range g.States {
		style := ""
		if shared[s.Code] {
			style = ", style=filled, fillcolor=lightcoral"
		}
		peripheries := ""
		if i == g.Initial {
			peripheries = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  s%d [label=\"%s\\n%s\"%s%s];\n",
			i, s.Code.String(n), g.Label(i), style, peripheries)
	}
	for i, arcs := range g.Out {
		for _, a := range arcs {
			fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", i, a.To, a.Event.Name)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
