package reach

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/vme"
)

func TestBoundedSafeNets(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *petri.Net
	}{
		{"vme-read", vme.ReadSTG().Net},
		{"vme-rw", vme.ReadWriteSTG().Net},
		{"phil-3", gen.Philosophers(3)},
	} {
		res, err := CheckBounded(tc.net, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Bounded || res.Bound != 1 {
			t.Fatalf("%s: bounded=%v bound=%d, want safe", tc.name, res.Bounded, res.Bound)
		}
	}
}

func TestBoundedNonSafe(t *testing.T) {
	// 2-token ring: bounded with bound 2.
	net := gen.MarkedGraphRing(4, 2)
	res, err := CheckBounded(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded || res.Bound != 2 {
		t.Fatalf("ring-4-2: bounded=%v bound=%d", res.Bounded, res.Bound)
	}
}

func TestUnboundedDetected(t *testing.T) {
	// t consumes from p and produces into p and q: q grows forever.
	net := petri.New("pump")
	p := net.AddPlace("p", 1)
	q := net.AddPlace("q", 0)
	tt := net.AddTransition("t")
	net.ArcPT(p, tt)
	net.ArcTP(tt, p)
	net.ArcTP(tt, q)
	res, err := CheckBounded(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded {
		t.Fatal("pump net must be unbounded")
	}
	small, large := res.Witness[0], res.Witness[1]
	if !strictlyCovers(large, small) {
		t.Fatal("witness must be a strict covering pair")
	}
}

func TestUnboundedProducerChain(t *testing.T) {
	// Source transition with a marked self-loop feeding a sink place.
	net := petri.New("chain")
	src := net.AddPlace("src", 1)
	sink := net.AddPlace("sink", 0)
	a := net.AddTransition("a")
	b := net.AddTransition("b")
	net.ArcPT(src, a)
	net.ArcTP(a, src)
	net.ArcTP(a, sink)
	net.ArcPT(sink, b)
	res, err := CheckBounded(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded {
		t.Fatal("must be unbounded (a pumps sink faster than b drains)")
	}
}

func TestBoundedStateLimit(t *testing.T) {
	if _, err := CheckBounded(gen.IndependentToggles(12), 10); err == nil {
		t.Fatal("state limit must be enforced")
	}
}

// drainNet moves the tokens of each source place, one firing at a time,
// into one shared sink: a bounded net whose sink ends up holding the sum.
func drainNet(sources ...int) *petri.Net {
	net := petri.New("drain")
	sink := net.AddPlace("sink", 0)
	for i, k := range sources {
		p := net.AddPlace(fmt.Sprintf("src%d", i), k)
		t := net.AddTransition(fmt.Sprintf("t%d", i))
		net.ArcPT(p, t)
		net.ArcTP(t, sink)
	}
	return net
}

// TestBoundedLargeCounts: a place of 201 tokens draining into an empty
// one is bounded with bound 201, however large the counts get; no
// marking of it strictly covers another.
func TestBoundedLargeCounts(t *testing.T) {
	res, err := CheckBounded(drainNet(201), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded || res.Bound != 201 {
		t.Fatalf("bounded=%v bound=%d witness=%v, want bounded with bound 201", res.Bounded, res.Bound, res.Witness)
	}
}

// TestBoundedTokenOverflow: draining 255 and 1 tokens into one place
// would put a 256th token there, which a byte marking cannot count, so
// the check is inconclusive and says which place overflowed.
func TestBoundedTokenOverflow(t *testing.T) {
	res, err := CheckBounded(drainNet(255, 1), 0)
	if !errors.Is(err, petri.ErrTokenOverflow) || !strings.Contains(err.Error(), "256th token in sink") {
		t.Fatalf("got %+v, %v; want a token overflow in sink", res, err)
	}
}
