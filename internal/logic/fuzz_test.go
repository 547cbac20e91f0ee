package logic_test

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// FuzzEqnParse drives the .eqn parser with arbitrary text. The parser must
// never panic; and whenever it accepts an input, the rendering is a fixed
// point: WriteEquations → reparse → WriteEquations reproduces the first
// rendering byte for byte.
func FuzzEqnParse(f *testing.F) {
	// The VME read controller of the format's doc comment.
	f.Add(".inputs DSr LDTACK\n.outputs DTACK LDS D\n.internal csc0\nD = LDTACK csc0\nLDS = D + csc0\nDTACK = D\ncsc0 = C(set: DSr LDTACK', reset: DSr' LDTACK)\n")
	f.Add(".inputs a b\n.outputs q\nq = C(set: a b, reset: a' b')\n")
	f.Add(".inputs s r\n.outputs q\nq = RS(set: s r', reset: s' r)\n")
	f.Add("# arbiter\n.inputs r1 r2\n.outputs g1 g2\ng1 = MUTEX(r1 g2')\ng2 = MUTEX(r2 g1')\n")
	f.Add(".inputs a\n.outputs one zero\none = 1\nzero = 0\n")
	f.Add(".inputs K K\n")
	f.Add(".inputs a\n.outputs q a\nq = a\n")

	f.Fuzz(func(t *testing.T, src string) {
		nl, err := logic.ParseEquations(strings.NewReader(src))
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		var first strings.Builder
		if err := nl.WriteEquations(&first); err != nil {
			t.Fatalf("WriteEquations on accepted input: %v", err)
		}
		nl2, err := logic.ParseEquations(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("own output rejected: %v\ninput:\n%s\noutput:\n%s", err, src, first.String())
		}
		var second strings.Builder
		if err := nl2.WriteEquations(&second); err != nil {
			t.Fatalf("WriteEquations after round trip: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("rendering is not a fixed point:\n--- first\n%s\n--- second\n%s",
				first.String(), second.String())
		}
	})
}
