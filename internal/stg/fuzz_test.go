package stg

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSTGParse drives the .g parser with arbitrary bytes. The parser must
// never panic; and whenever it accepts an input, the canonical form must be
// a fixed point: write → reparse → write reproduces the first rendering
// byte for byte. The committed corpus under testdata/fuzz/FuzzSTGParse
// seeds the interesting shapes; the repo-level testdata specs are added at
// run time so every shipped fixture is always in the corpus.
func FuzzSTGParse(f *testing.F) {
	specs, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(".model m\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+\n.marking { <b+,a+> }\n.end\n"))
	f.Add([]byte(".model d\n.inputs a\n.dummy eps\n.graph\na+ eps\neps a-\na- a+\n.marking { <a-,a+> }\n.end\n"))
	f.Add([]byte(".model p\n.inputs a\n.graph\np0 a+\na+ p0\n.marking { p0=2 }\n.end\n"))
	f.Add([]byte(".model t\n.inputs a\n.graph\na~ a~/1\na~/1 a~\n.marking { <a~/1,a~> }\n.end\n"))
	// Shapes from the canonical-form bugfix sweep: dummy-order sensitivity,
	// a multiply-marked implicit place, and a place whose name collides with
	// another pair's canonical "<pre,post>" name.
	f.Add([]byte(".model d2\n.inputs a\n.dummy x y\n.graph\ny x\nx y\n.marking { <x,y> }\n.end\n"))
	f.Add([]byte(".model m2\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+\n.marking { <a+,b+>=2 }\n.end\n"))
	// An arc listed twice, rejected rather than read as a weight-2 arc.
	f.Add([]byte(".model r\n.inputs a b\n.graph\np0 a+ a+\na+ b+\nb+ a-\na- b-\nb- p0\n.marking { p0 }\n.end\n"))
	// Token counts outside 0..255, rejected rather than wrapped into a byte.
	f.Add([]byte(handshakeMarking("p=-1")))
	f.Add([]byte(handshakeMarking("p=256 <b-,a+>")))
	f.Add([]byte(".model m3\n.inputs a b c d e\n.graph\na+ <x\n<x b+\nc+ <a+,b+>\ne+ <a+,b+>\n<a+,b+> d+\nb+ a+\nd+ c+\nd+ e+\n.marking { <b+,a+> <d+,c+> <d+,e+> }\n.end\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseG(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		var first strings.Builder
		if err := g.WriteG(&first); err != nil {
			t.Fatalf("WriteG on accepted input: %v", err)
		}
		g2, err := ParseG(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("own output rejected: %v\ninput:\n%s\noutput:\n%s", err, data, first.String())
		}
		var second strings.Builder
		if err := g2.WriteG(&second); err != nil {
			t.Fatalf("WriteG after round trip: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("canonical form is not a fixed point:\n--- first\n%s\n--- second\n%s",
				first.String(), second.String())
		}
		// Hash equality of two parses of the same net is the cache-key
		// contract of the synthesis daemon: CanonicalHash must not see
		// parse-order artifacts (transition creation order, implicit-place
		// naming) that the textual fixed point hides.
		h1, err := g.CanonicalHash()
		if err != nil {
			t.Fatalf("CanonicalHash: %v", err)
		}
		h2, err := g2.CanonicalHash()
		if err != nil {
			t.Fatalf("CanonicalHash after round trip: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("canonical hashes differ across a parse cycle: %s vs %s\ninput:\n%s", h1, h2, data)
		}
	})
}
