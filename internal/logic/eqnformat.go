package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/boolmin"
	"repro/internal/stg"
)

// Textual netlist interchange format — the round-trippable form of
// Equations():
//
//	# VME read controller
//	.inputs DSr LDTACK
//	.outputs DTACK LDS D
//	.internal csc0
//	D = LDTACK csc0
//	LDS = D + csc0
//	DTACK = D
//	csc0 = C(set: DSr LDTACK', reset: DSr' LDTACK)
//
// Expressions are sums of products; a trailing apostrophe negates a literal.
// Latches are written C(set: ..., reset: ...) or RS(set: ..., reset: ...);
// mutex grant halves as MUTEX(...). Constant functions are "0" and "1".
// A signal is declared once; its name does not start with '.' and holds no
// '(', ')' or ','. A netlist has at most 64 signals.

// WriteEquations emits the netlist in the textual format.
func (nl *Netlist) WriteEquations(w io.Writer) error {
	var b strings.Builder
	if nl.Name != "" {
		fmt.Fprintf(&b, "# %s\n", nl.Name)
	}
	emit := func(kw string, kind stg.Kind) {
		var names []string
		for i, s := range nl.Signals {
			if nl.Kinds[i] == kind {
				names = append(names, s)
			}
		}
		if len(names) > 0 {
			fmt.Fprintf(&b, "%s %s\n", kw, strings.Join(names, " "))
		}
	}
	emit(".inputs", stg.Input)
	emit(".outputs", stg.Output)
	emit(".internal", stg.Internal)
	b.WriteString(nl.Equations())
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// ParseEquations reads a netlist in the textual format.
func ParseEquations(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	sc := bufio.NewScanner(r)
	// Lines may run to 1 MB, as in stg.ParseG; the buffer grows on demand.
	sc.Buffer(nil, 1<<20)
	type rawGate struct {
		output string
		rhs    string
		line   int
	}
	var gates []rawGate
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var kind stg.Kind
		switch fields[0] {
		case ".inputs":
			kind = stg.Input
		case ".outputs":
			kind = stg.Output
		case ".internal":
			kind = stg.Internal
		default:
			eq := strings.SplitN(line, "=", 2)
			if len(eq) != 2 {
				return nil, fmt.Errorf("logic: line %d: expected NAME = EXPR", lineNo)
			}
			gates = append(gates, rawGate{
				output: strings.TrimSpace(eq[0]),
				rhs:    strings.TrimSpace(eq[1]),
				line:   lineNo,
			})
			continue
		}
		for _, n := range fields[1:] {
			switch {
			case nl.SignalIndex(n) >= 0: // AddSignal would panic
				return nil, fmt.Errorf("logic: line %d: signal %q declared twice", lineNo, n)
			case n[0] == '.' || strings.ContainsAny(n, "(),"):
				// WriteEquations could not render such a name so that it
				// reads back the same: a gate line would read as a
				// directive, or a sum of products as a latch.
				return nil, fmt.Errorf("logic: line %d: signal name %q starts with '.' or holds '(', ')' or ','", lineNo, n)
			case len(nl.Signals) == 64: // the width of a cube
				return nil, fmt.Errorf("logic: line %d: more than 64 signals", lineNo)
			}
			nl.AddSignal(n, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("logic: line %d: %w", lineNo+1, err)
	}
	n := len(nl.Signals)
	for _, rg := range gates {
		out := nl.SignalIndex(rg.output)
		if out < 0 {
			return nil, fmt.Errorf("logic: line %d: undeclared signal %q", rg.line, rg.output)
		}
		gate, err := parseRHS(nl, rg.rhs, out, n)
		if err != nil {
			return nil, fmt.Errorf("logic: line %d: %w", rg.line, err)
		}
		nl.Gates = append(nl.Gates, gate)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

func parseRHS(nl *Netlist, rhs string, out, n int) (Gate, error) {
	latch := func(kind GateKind, body string) (Gate, error) {
		// body: "set: EXPR, reset: EXPR"
		parts := splitTop(body, ',')
		if len(parts) != 2 {
			return Gate{}, fmt.Errorf("latch needs set and reset parts")
		}
		var set, reset boolmin.Cover
		for _, p := range parts {
			kv := strings.SplitN(p, ":", 2)
			if len(kv) != 2 {
				return Gate{}, fmt.Errorf("latch part %q needs a label", p)
			}
			cv, err := parseSOP(nl, strings.TrimSpace(kv[1]), n)
			if err != nil {
				return Gate{}, err
			}
			switch strings.TrimSpace(kv[0]) {
			case "set":
				set = cv
			case "reset":
				reset = cv
			default:
				return Gate{}, fmt.Errorf("unknown latch part %q", kv[0])
			}
		}
		return Gate{Kind: kind, Output: out, Set: set, Reset: reset}, nil
	}
	switch {
	case strings.HasPrefix(rhs, "C(") && strings.HasSuffix(rhs, ")"):
		return latch(CElem, rhs[2:len(rhs)-1])
	case strings.HasPrefix(rhs, "RS(") && strings.HasSuffix(rhs, ")"):
		return latch(RSLatch, rhs[3:len(rhs)-1])
	case strings.HasPrefix(rhs, "MUTEX(") && strings.HasSuffix(rhs, ")"):
		cv, err := parseSOP(nl, rhs[6:len(rhs)-1], n)
		if err != nil {
			return Gate{}, err
		}
		return Gate{Kind: MutexHalf, Output: out, F: cv}, nil
	default:
		cv, err := parseSOP(nl, rhs, n)
		if err != nil {
			return Gate{}, err
		}
		return Gate{Kind: Comb, Output: out, F: cv}, nil
	}
}

// splitTop splits on sep outside parentheses.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// parseSOP parses "a b' + c" into a cover; "0" and "1" are constants.
func parseSOP(nl *Netlist, s string, n int) (boolmin.Cover, error) {
	s = strings.TrimSpace(s)
	cv := boolmin.Cover{N: n}
	if s == "0" {
		return cv, nil
	}
	if s == "1" {
		cv.Cubes = []boolmin.Cube{boolmin.FullCube()}
		return cv, nil
	}
	for _, term := range strings.Split(s, "+") {
		cube := boolmin.FullCube()
		lits := strings.Fields(strings.TrimSpace(term))
		if len(lits) == 0 {
			return cv, fmt.Errorf("empty product term in %q", s)
		}
		for _, lit := range lits {
			pos := true
			name := lit
			if strings.HasSuffix(name, "'") {
				pos = false
				name = name[:len(name)-1]
			}
			v := nl.SignalIndex(name)
			if v < 0 {
				return cv, fmt.Errorf("undeclared signal %q", name)
			}
			cube = cube.WithLiteral(v, pos)
		}
		cv.Cubes = append(cv.Cubes, cube)
	}
	return cv, nil
}
