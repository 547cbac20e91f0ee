package logic_test

import (
	"bufio"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/stg"
)

func TestEquationsRoundTrip(t *testing.T) {
	sg := cscSG(t)
	for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC} {
		nl, err := logic.Synthesize(sg, style)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := nl.WriteEquations(&buf); err != nil {
			t.Fatal(err)
		}
		nl2, err := logic.ParseEquations(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("style %v: parse back: %v\n%s", style, err, buf.String())
		}
		// Same behaviour on every vector.
		if len(nl2.Signals) != len(nl.Signals) {
			t.Fatal("signal count changed")
		}
		for v := uint64(0); v < 1<<uint(len(nl.Signals)); v++ {
			for i := range nl.Signals {
				idx2 := nl2.SignalIndex(nl.Signals[i])
				if nl2.GateFor(idx2) == nil {
					continue
				}
				if nl.Next(v, i) != nl2.Next(remap(v, nl, nl2), idx2) {
					t.Fatalf("style %v: behaviour differs at %b for %s", style, v, nl.Signals[i])
				}
			}
		}
	}
}

// remap converts a vector from nl's signal order to nl2's.
func remap(v uint64, nl, nl2 *logic.Netlist) uint64 {
	var out uint64
	for i, name := range nl.Signals {
		if v&(1<<uint(i)) != 0 {
			out |= 1 << uint(nl2.SignalIndex(name))
		}
	}
	return out
}

func TestParseEquationsMutexAndConstants(t *testing.T) {
	src := `
# arbiter
.inputs r1 r2
.outputs g1 g2
.internal aux
g1 = MUTEX(r1 g2')
g2 = MUTEX(r2 g1')
aux = 0
`
	nl, err := logic.ParseEquations(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g1 := nl.GateFor(nl.SignalIndex("g1"))
	if g1 == nil || g1.Kind != logic.MutexHalf {
		t.Fatal("mutex kind lost")
	}
	aux := nl.GateFor(nl.SignalIndex("aux"))
	if aux == nil || len(aux.F.Cubes) != 0 {
		t.Fatal("constant 0 must parse to empty cover")
	}
	one := `
.outputs x
x = 1
`
	nl2, err := logic.ParseEquations(strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	if !nl2.Next(0, 0) {
		t.Fatal("constant 1 broken")
	}
}

func TestParseEquationsErrors(t *testing.T) {
	cases := []string{
		".outputs x\nx = y\n",                     // undeclared literal
		".outputs x\ny = x\n",                     // undeclared output
		".outputs x\nx\n",                         // missing '='
		".outputs x\nx = C(set: x)\n",             // latch missing reset
		".outputs x\nx = C(bogus: x, reset: x)\n", // bad label
		".outputs x\n",                            // undriven output
		".outputs x\nx = + \n",                    // empty term
		// Names WriteEquations could not render so that they read back:
		// a comb gate printed as "C(q b)" reads as a latch, and a gate
		// line ".inputs = a" as a declaration.
		".inputs C(q b)\n.outputs x\nx = b) C(q\n",
		".inputs a\n.outputs .inputs\n.inputs=a\n",
		".inputs" + manySignals(65) + "\n", // wider than a cube
	}
	for i, src := range cases {
		if _, err := logic.ParseEquations(strings.NewReader(src)); err == nil {
			t.Errorf("case %d must fail:\n%s", i, src)
		}
	}
	// An inputs-only netlist is valid: no outputs means no gates needed.
	if _, err := logic.ParseEquations(strings.NewReader(".inputs x\n")); err != nil {
		t.Fatalf("inputs-only netlist must parse: %v", err)
	}
}

func TestParseEquationsKinds(t *testing.T) {
	src := `
.inputs a
.outputs q
q = RS(set: a, reset: a')
`
	nl, err := logic.ParseEquations(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nl.GateFor(1).Kind != logic.RSLatch {
		t.Fatal("RS kind lost")
	}
	if nl.Kinds[0] != stg.Input {
		t.Fatal("input kind lost")
	}
}

// manySignals returns n distinct names separated by spaces, with a
// leading space.
func manySignals(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(" s")
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}

// A repeated declaration is an input error naming its line, within one
// directive and across two.
func TestParseEquationsDuplicateSignal(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{".inputs K K\n", `logic: line 1: signal "K" declared twice`},
		{".inputs a\n.outputs q a\nq = a\n", `logic: line 2: signal "a" declared twice`},
	} {
		_, err := logic.ParseEquations(strings.NewReader(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: err = %v, want %s", tc.src, err, tc.want)
		}
	}
}

// The scanner holds lines past bufio.MaxScanTokenSize up to the 1 MB cap,
// and a longer line fails with bufio.ErrTooLong.
func TestParseEquationsLongLines(t *testing.T) {
	long := ".inputs a\n.outputs q\nq = " + strings.Repeat("a ", 450_000) + "\n"
	nl, err := logic.ParseEquations(strings.NewReader(long))
	if err != nil {
		t.Fatalf("%d-byte line: %v", len(long), err)
	}
	if got := nl.Equations(); got != "q = a" {
		t.Fatalf("long line parsed to %q", got)
	}
	tooLong := ".inputs a\n# " + strings.Repeat("x", 1<<20) + "\n"
	if _, err := logic.ParseEquations(strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line past 1 MB: err = %v, want bufio.ErrTooLong", err)
	}
}

// A small parse allocates in proportion to its text, not a 1 MB buffer.
func TestParseEquationsAllocation(t *testing.T) {
	nl, err := logic.Synthesize(cscSG(t), logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := nl.WriteEquations(&text); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := logic.ParseEquations(strings.NewReader(text.String())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("ParseEquations allocates %d bytes per parse of a %d-byte netlist, want under 64 KB",
			per, text.Len())
	}
}
