package unfold

import (
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/vme"
)

func TestPrefixToggleCompleteness(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		net := gen.IndependentToggles(k)
		u, err := Build(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cuts := u.ReachableMarkings()
		if len(cuts) != rg.NumStates() {
			t.Fatalf("toggles-%d: prefix cuts %d vs explicit %d", k, len(cuts), rg.NumStates())
		}
		for _, m := range rg.Markings {
			if !cuts[m.Key()] {
				t.Fatalf("toggles-%d: marking %s missing from prefix", k, m.Format(net))
			}
		}
		// Prefix grows linearly while the RG is 2^k.
		_, events, _ := u.Stats()
		if events > 4*k {
			t.Fatalf("toggles-%d: prefix has %d events, expected O(k)", k, events)
		}
	}
}

func TestPrefixVMERead(t *testing.T) {
	g := vme.ReadSTG()
	u, err := Build(g.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := reach.Explore(g.Net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := u.ReachableMarkings()
	if len(cuts) != rg.NumStates() {
		t.Fatalf("read cycle: prefix cuts %d vs explicit %d", len(cuts), rg.NumStates())
	}
	conds, events, cutoffs := u.Stats()
	if cutoffs == 0 {
		t.Fatal("a cyclic net needs cutoff events")
	}
	if conds == 0 || events == 0 {
		t.Fatal("empty prefix")
	}
}

func TestPrefixReadWriteChoice(t *testing.T) {
	g := vme.ReadWriteSTG()
	u, err := Build(g.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := reach.Explore(g.Net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts := u.ReachableMarkings()
	if len(cuts) != rg.NumStates() {
		t.Fatalf("read/write: prefix cuts %d vs explicit %d", len(cuts), rg.NumStates())
	}
	// The two request events must be in conflict; find them.
	var dsr, dsw = -1, -1
	for e := range u.Events {
		switch g.Net.Transitions[u.Events[e].Trans].Name {
		case "DSr+":
			if dsr < 0 {
				dsr = e
			}
		case "DSw+":
			if dsw < 0 {
				dsw = e
			}
		}
	}
	if dsr < 0 || dsw < 0 {
		t.Fatal("request events missing from prefix")
	}
	if !u.Conflict(dsr, dsw) {
		t.Fatal("DSr+ and DSw+ must be in conflict")
	}
	if u.Concurrent(dsr, dsw) || u.Causal(dsr, dsw) {
		t.Fatal("relation misclassification")
	}
}

func TestOrderingRelationsReadCycle(t *testing.T) {
	g := vme.ReadSTG()
	u, err := Build(g.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) int {
		for e := range u.Events {
			if g.Net.Transitions[u.Events[e].Trans].Name == name {
				return e
			}
		}
		t.Fatalf("event %s not in prefix", name)
		return -1
	}
	dsr := find("DSr+")
	lds := find("LDS+")
	dtackM := find("DTACK-")
	ldsM := find("LDS-")
	if !u.Causal(dsr, lds) {
		t.Fatal("DSr+ < LDS+ expected")
	}
	// The paper's concurrency pairs: DTACK- || LDS-.
	if !u.Concurrent(dtackM, ldsM) {
		t.Fatal("DTACK- and LDS- must be concurrent")
	}
	if u.Conflict(dtackM, ldsM) {
		t.Fatal("no conflict in a marked graph")
	}
}

func TestPrefixLimits(t *testing.T) {
	net := gen.IndependentToggles(4)
	if _, err := Build(net, Options{Budget: &budget.Budget{MaxEvents: 2}}); err == nil {
		t.Fatal("event limit must be enforced")
	}
	unsafe := gen.MarkedGraphRing(2, 1)
	unsafe.Places[0].Initial = 2
	if _, err := Build(unsafe, Options{}); err == nil {
		t.Fatal("unsafe initial marking must be rejected")
	}
}

// TestPrefixUnsafeNet: on a net that fills a place without bound (p a+ a-,
// a+ p q, a- p r, p marked) the construction stops at the first event whose
// post-condition is concurrent with a condition of the same place, and
// returns the prefix built so far with an error naming both. Without the
// check the prefix grows, with no cutoff, until the event ceiling the test
// sets.
func TestPrefixUnsafeNet(t *testing.T) {
	net := petri.New("unsafe")
	p, q, r := net.AddPlace("p", 1), net.AddPlace("q", 0), net.AddPlace("r", 0)
	up, down := net.AddTransition("a+"), net.AddTransition("a-")
	for _, tr := range []int{up, down} {
		net.ArcPT(p, tr)
		net.ArcTP(tr, p)
	}
	net.ArcTP(up, q)
	net.ArcTP(down, r)
	u, err := Build(net, Options{Budget: &budget.Budget{MaxEvents: 1000}})
	if err == nil || err.Error() != "unfold: net not safe: firing a+ puts a second token in q" {
		t.Fatalf("got error %v, want a second token in q", err)
	}
	if u == nil || len(u.Events) != 2 {
		t.Fatalf("want the two-event partial prefix, got %+v", u)
	}
}
