package petri

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// twoStageRing builds a tiny marked-graph ring: t0 -> p0 -> t1 -> p1 -> t0
// with a token on p1.
func twoStageRing() *Net {
	n := New("ring2")
	t0 := n.AddTransition("t0")
	t1 := n.AddTransition("t1")
	p0 := n.AddPlace("p0", 0)
	p1 := n.AddPlace("p1", 1)
	n.ArcTP(t0, p0)
	n.ArcPT(p0, t1)
	n.ArcTP(t1, p1)
	n.ArcPT(p1, t0)
	return n
}

func TestTokenGameBasics(t *testing.T) {
	n := twoStageRing()
	m := n.InitialMarking()
	if !n.Enabled(m, 0) {
		t.Fatal("t0 should be enabled initially")
	}
	if n.Enabled(m, 1) {
		t.Fatal("t1 should be disabled initially")
	}
	m2 := n.Fire(m, 0)
	if m2[0] != 1 || m2[1] != 0 {
		t.Fatalf("after t0: got %v", m2)
	}
	if m[0] != 0 || m[1] != 1 {
		t.Fatalf("Fire must not mutate its argument: %v", m)
	}
	m3 := n.Fire(m2, 1)
	if !m3.Equal(m) {
		t.Fatalf("ring should return to initial marking, got %v", m3)
	}
}

func TestFireDisabledPanics(t *testing.T) {
	n := twoStageRing()
	defer func() {
		if recover() == nil {
			t.Fatal("firing a disabled transition must panic")
		}
	}()
	n.Fire(n.InitialMarking(), 1)
}

func TestDuplicateNamesPanic(t *testing.T) {
	n := New("x")
	n.AddPlace("p", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate place name must panic")
		}
	}()
	n.AddPlace("p", 0)
}

func TestImplicitAndChain(t *testing.T) {
	n := New("chain")
	a := n.AddTransition("a")
	b := n.AddTransition("b")
	c := n.AddTransition("c")
	n.Chain(a, b, c)
	p := n.Implicit(c, a, 1)
	if n.Places[p].Initial != 1 {
		t.Fatal("implicit place should carry requested marking")
	}
	if !n.IsMarkedGraph() {
		t.Fatal("chain+loop is a marked graph")
	}
	if !n.StronglyConnected() {
		t.Fatal("ring must be strongly connected")
	}
	// Token game: a, b, c, a, ... in strict sequence.
	m := n.InitialMarking()
	want := []int{0, 1, 2, 0, 1, 2}
	for step, tr := range want {
		en := n.EnabledList(m)
		if len(en) != 1 || en[0] != tr {
			t.Fatalf("step %d: enabled %v, want [%d]", step, en, tr)
		}
		m = n.Fire(m, tr)
	}
}

func TestImplicitNameCollision(t *testing.T) {
	n := New("dup")
	a := n.AddTransition("a")
	b := n.AddTransition("b")
	p1 := n.Implicit(a, b, 0)
	p2 := n.Implicit(a, b, 0)
	if n.Places[p1].Name == n.Places[p2].Name {
		t.Fatal("parallel implicit places must get distinct names")
	}
}

func TestStructuralClasses(t *testing.T) {
	// Choice net: p0 -> {a, b}, both -> p1 -> c -> p0.
	n := New("choice")
	p0 := n.AddPlace("p0", 1)
	p1 := n.AddPlace("p1", 0)
	a := n.AddTransition("a")
	b := n.AddTransition("b")
	c := n.AddTransition("c")
	n.ArcPT(p0, a)
	n.ArcPT(p0, b)
	n.ArcTP(a, p1)
	n.ArcTP(b, p1)
	n.ArcPT(p1, c)
	n.ArcTP(c, p0)

	if n.IsMarkedGraph() {
		t.Fatal("net with choice place is not a marked graph")
	}
	if !n.IsStateMachine() {
		t.Fatal("every transition has 1 pre / 1 post: state machine")
	}
	if !n.IsFreeChoice() {
		t.Fatal("single shared preset: free choice")
	}
	if got := n.ChoicePlaces(); len(got) != 1 || got[0] != p0 {
		t.Fatalf("choice places = %v, want [p0]", got)
	}
	if got := n.MergePlaces(); len(got) != 1 || got[0] != p1 {
		t.Fatalf("merge places = %v, want [p1]", got)
	}
	pairs := n.ConflictPairs()
	if len(pairs) != 1 || pairs[0] != [2]int{a, b} {
		t.Fatalf("conflict pairs = %v", pairs)
	}
}

func TestNonFreeChoice(t *testing.T) {
	// a and b share p0 but b also needs p1: asymmetric confusion.
	n := New("nfc")
	p0 := n.AddPlace("p0", 1)
	p1 := n.AddPlace("p1", 1)
	a := n.AddTransition("a")
	b := n.AddTransition("b")
	n.ArcPT(p0, a)
	n.ArcPT(p0, b)
	n.ArcPT(p1, b)
	pout := n.AddPlace("pout", 0)
	n.ArcTP(a, pout)
	n.ArcTP(b, pout)
	if n.IsFreeChoice() {
		t.Fatal("asymmetric choice must not be free choice")
	}
}

func TestValidate(t *testing.T) {
	n := New("bad")
	n.AddTransition("t")
	if err := n.Validate(); err == nil {
		t.Fatal("empty-preset transition must fail validation")
	}
	n2 := twoStageRing()
	if err := n2.Validate(); err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}
}

func TestClone(t *testing.T) {
	n := twoStageRing()
	c := n.Clone()
	c.AddPlace("extra", 0)
	c.Transitions[0].Pre = append(c.Transitions[0].Pre, 2)
	if len(n.Places) != 2 || len(n.Transitions[0].Pre) != 1 {
		t.Fatal("clone must not share storage with original")
	}
	if c.PlaceIndex("extra") != 2 {
		t.Fatal("clone name index must be independent")
	}
}

func TestMarkingHelpers(t *testing.T) {
	m := Marking{0, 1, 2}
	if m.Safe() {
		t.Fatal("marking with 2 tokens is not safe")
	}
	if m.Tokens() != 3 {
		t.Fatalf("tokens = %d", m.Tokens())
	}
	if mp := m.MarkedPlaces(); len(mp) != 2 || mp[0] != 1 || mp[1] != 2 {
		t.Fatalf("marked places = %v", mp)
	}
	if !m.Clone().Equal(m) {
		t.Fatal("clone must equal original")
	}
	if m.Equal(Marking{0, 1}) {
		t.Fatal("length mismatch must not be equal")
	}
	k1, k2 := Marking{1, 0}.Key(), Marking{0, 1}.Key()
	if k1 == k2 {
		t.Fatal("distinct markings must have distinct keys")
	}
}

func TestMarkingFormat(t *testing.T) {
	n := twoStageRing()
	s := n.InitialMarking().Format(n)
	if s != "{p1}" {
		t.Fatalf("format = %q", s)
	}
}

// Property: markings of a live marked-graph ring conserve total token count.
func TestQuickRingTokenConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomRing(rng)
		m := n.InitialMarking()
		total := m.Tokens()
		for step := 0; step < 100; step++ {
			en := n.EnabledList(m)
			if len(en) == 0 {
				return total == 0
			}
			m = n.Fire(m, en[rng.Intn(len(en))])
			if m.Tokens() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomRing builds a ring of 2..10 transitions with 1..2 tokens placed
// randomly; every place has one producer and one consumer so token count is
// invariant.
func randomRing(rng *rand.Rand) *Net {
	n := New("rring")
	k := 2 + rng.Intn(9)
	ts := make([]int, k)
	for i := range ts {
		ts[i] = n.AddTransition(trName(i))
	}
	tok := 1 + rng.Intn(2)
	for i := 0; i < k; i++ {
		init := 0
		if i < tok {
			init = 1
		}
		p := n.AddPlace("p"+trName(i), init)
		n.ArcTP(ts[i], p)
		n.ArcPT(p, ts[(i+1)%k])
	}
	return n
}

func trName(i int) string {
	return string(rune('a' + i))
}

func TestWriteDOT(t *testing.T) {
	n := twoStageRing()
	var buf bytes.Buffer
	if err := n.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "t0", "t1", "p0", "p1", "shape=box"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestStringStable(t *testing.T) {
	n := twoStageRing()
	if n.String() != n.String() {
		t.Fatal("String must be deterministic")
	}
	if !strings.Contains(n.String(), "2 places, 2 transitions") {
		t.Fatalf("unexpected String: %s", n.String())
	}
}
