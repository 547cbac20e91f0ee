package stg

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

func buildToy() *STG {
	g := New("toy")
	g.AddSignal("a", Input)
	g.AddSignal("b", Output)
	ap := g.Rise("a")
	bp := g.Rise("b")
	am := g.Fall("a")
	bm := g.Fall("b")
	g.Net.Chain(ap, bp, am, bm)
	g.Net.Implicit(bm, ap, 1)
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := buildToy()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.SignalIndex("a") != 0 || g.SignalIndex("b") != 1 || g.SignalIndex("zz") != -1 {
		t.Fatal("signal index lookup broken")
	}
	if !g.IsInput(0) {
		t.Fatal("a+ is an input transition")
	}
	if g.IsInput(1) {
		t.Fatal("b+ is not an input transition")
	}
	if got := g.NonInputSignals(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("non-input signals = %v", got)
	}
	if got := g.TransitionsOf(0); len(got) != 2 {
		t.Fatalf("transitions of a = %v", got)
	}
}

func TestDuplicateLabelsGetSuffixes(t *testing.T) {
	g := New("dup")
	g.AddSignal("x", Output)
	t1 := g.Rise("x")
	t2 := g.Rise("x")
	if g.Net.Transitions[t1].Name != "x+" || g.Net.Transitions[t2].Name != "x+/1" {
		t.Fatalf("names: %q, %q", g.Net.Transitions[t1].Name, g.Net.Transitions[t2].Name)
	}
	if g.Labels[t1] != g.Labels[t2] {
		t.Fatal("both instances must carry the same label")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildToy()
	c := g.Clone()
	c.AddSignal("z", Internal)
	c.Rise("z")
	if len(g.Signals) != 2 || len(g.Labels) != 4 {
		t.Fatal("clone leaked into original")
	}
	if c.SignalIndex("z") != 2 {
		t.Fatal("clone signal map not updated")
	}
}

func TestValidateRejectsBadLabels(t *testing.T) {
	g := buildToy()
	g.Labels[0].Sig = 99
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range signal must fail validation")
	}
}

func TestGRoundTrip(t *testing.T) {
	g := buildToy()
	var buf bytes.Buffer
	if err := g.WriteG(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{".model toy", ".inputs a", ".outputs b", ".graph", ".marking", ".end"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	g2, err := ParseG(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if len(g2.Signals) != 2 || len(g2.Net.Transitions) != 4 {
		t.Fatalf("round trip lost structure: %s", g2)
	}
	// Same number of marked places, same token game length-1 behaviour.
	if g2.Net.InitialMarking().Tokens() != g.Net.InitialMarking().Tokens() {
		t.Fatal("round trip lost marking")
	}
	// Round-trip again and compare text (stable form).
	var buf2 bytes.Buffer
	if err := g2.WriteG(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("write->parse->write not stable:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestParseGExplicitPlacesAndChoice(t *testing.T) {
	src := `
.model choice
.inputs req1 req2
.outputs gnt
.graph
p0 req1+ req2+
req1+ gnt+
req2+ gnt+
gnt+ gnt-
gnt- p0
.marking { p0 }
.end
`
	g, err := ParseG(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p0 := g.Net.PlaceIndex("p0")
	if p0 < 0 || g.Net.Places[p0].Initial != 1 {
		t.Fatal("explicit place p0 must exist and be marked")
	}
	if got := g.Net.ChoicePlaces(); len(got) != 1 || got[0] != p0 {
		t.Fatalf("choice places = %v", got)
	}
	if g.Net.TransitionIndex("req1+") < 0 || g.Net.TransitionIndex("gnt-") < 0 {
		t.Fatal("transitions missing")
	}
}

func TestParseGInstanceSuffixAndDummy(t *testing.T) {
	src := `
.model inst
.inputs a
.outputs x
.dummy eps
.graph
a+ x+ x+/1
x+ eps
x+/1 eps
eps a-
a- a+
.marking { <a-,a+> }
.end
`
	g, err := ParseG(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := g.Net.TransitionIndex("x+"), g.Net.TransitionIndex("x+/1")
	if i1 < 0 || i2 < 0 {
		t.Fatal("instance-suffixed transitions missing")
	}
	if g.Labels[i1] != g.Labels[i2] {
		t.Fatal("x+ and x+/1 must carry the same label")
	}
	d := g.Net.TransitionIndex("eps")
	if d < 0 || g.Labels[d].Sig != -1 {
		t.Fatal("dummy transition must have Sig=-1")
	}
	if g.Net.InitialMarking().Tokens() != 1 {
		t.Fatal("implicit-place marking lost")
	}
}

// handshakeMarking is a four-transition handshake with one explicit place p
// between a+ and b+, under the given .marking body.
func handshakeMarking(marking string) string {
	return ".model h\n.inputs a\n.outputs b\n.graph\na+ p\np b+\nb+ a-\na- b-\nb- a+\n.marking { " +
		marking + " }\n.end\n"
}

func TestParseGErrors(t *testing.T) {
	cases := []string{
		".model m\n.inputs a\n.graph\np q\n.end\n",                      // place->place arc
		".model m\n.inputs a a\n.graph\n.end\n",                         // duplicate signal
		".model m\n.inputs a\n.graph\na+ a-\n.marking { nope }\n.end\n", // unknown marked place
		// Token counts outside 0..255, which a byte marking cannot hold.
		handshakeMarking("p=-1"),
		handshakeMarking("p=256 <b-,a+>"),
		"stray line\n", // text outside .graph
	}
	for i, src := range cases {
		if _, err := ParseG(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

// TestParseGRepeatedArc pins that an arc listed twice is an error, not a
// weight-2 arc the token game would fire as two weight-1 arcs: place to
// transition, transition to place, transition to transition on one line,
// and one transition pair on two lines (which reuses the implicit place).
func TestParseGRepeatedArc(t *testing.T) {
	const head = ".model r\n.inputs a b\n.graph\n"
	cases := []struct{ graph, want string }{
		{"p0 a+ a+\na+ b+\nb+ a-\na- b-\nb- p0\n.marking { p0 }\n",
			"stg: line 4: arc p0 -> a+ declared twice"},
		{"p0 a+\na+ q q\nq b+\nb+ a-\na- b-\nb- p0\n.marking { p0 }\n",
			"stg: line 5: arc a+ -> q declared twice"},
		{"a+ b+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n",
			"stg: line 4: arc a+ -> b+ declared twice"},
		{"a+ b+\nb+ a-\na- b-\nb- a+\na+ b+\n.marking { <b-,a+> }\n",
			"stg: line 8: arc a+ -> b+ declared twice"},
	}
	for _, tc := range cases {
		_, err := ParseG(strings.NewReader(head + tc.graph + ".end\n"))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: got %v, want %s", tc.graph, err, tc.want)
		}
	}
}

// The scanner holds lines past bufio.MaxScanTokenSize up to the 1 MB cap,
// and a longer line fails with bufio.ErrTooLong.
func TestParseGLongLines(t *testing.T) {
	name := strings.Repeat("m", 900_000)
	g, err := ParseG(strings.NewReader(".model " + name + "\n.inputs a\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.end\n"))
	if err != nil {
		t.Fatalf("900 KB line: %v", err)
	}
	if g.Name() != name {
		t.Fatalf("model name of %d bytes, want %d", len(g.Name()), len(name))
	}
	tooLong := ".model m\n# " + strings.Repeat("x", 1<<20) + "\n"
	if _, err := ParseG(strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line past 1 MB: err = %v, want bufio.ErrTooLong", err)
	}
}

// A small parse allocates in proportion to its text, not a 1 MB buffer.
func TestParseGAllocation(t *testing.T) {
	data, err := os.ReadFile("../../testdata/vme-read.g")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseG(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("ParseG allocates %d bytes per parse of vme-read.g, want under 64 KB", per)
	}
}

func TestFromWaveformRejectsUnknownSignal(t *testing.T) {
	w := Waveform{
		Name:    "bad",
		Signals: []Signal{{Name: "a", Kind: Input}},
		Events:  []WaveEvent{{Signal: "zz", Dir: Rise}},
	}
	if _, err := FromWaveform(w); err == nil {
		t.Fatal("unknown signal must be rejected")
	}
}

func TestFromWaveformTokenPlacement(t *testing.T) {
	w := Waveform{
		Name: "loop",
		Signals: []Signal{
			{Name: "a", Kind: Input}, {Name: "b", Kind: Output},
		},
		Events: []WaveEvent{
			{Signal: "a", Dir: Rise}, {Signal: "b", Dir: Rise},
			{Signal: "a", Dir: Fall}, {Signal: "b", Dir: Fall},
		},
		Causality: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	g, err := FromWaveform(w)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Net.InitialMarking()
	if m.Tokens() != 1 {
		t.Fatalf("exactly the back-arc should carry a token, marking %v", m)
	}
	en := g.Net.EnabledList(m)
	if len(en) != 1 || g.Net.Transitions[en[0]].Name != "a+" {
		t.Fatalf("a+ must be the only enabled transition, got %v", en)
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" ||
		Internal.String() != "internal" || Dummy.String() != "dummy" {
		t.Fatal("Kind.String broken")
	}
	if Rise.String() != "+" || Fall.String() != "-" || Toggle.String() != "~" {
		t.Fatal("Dir.String broken")
	}
}
