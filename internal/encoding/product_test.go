package encoding

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

// explored explores g as the base of a ranking round.
func explored(t *testing.T, g *stg.STG) *Solution {
	t.Helper()
	base, err := explore(g, reach.Options{})
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return base
}

// productRound is one ranking round the differential test checks pair by
// pair.
type productRound struct {
	name      string
	g         *stg.STG
	signal    string
	maxStates int // candidate state cap; 0 is reach's default
}

// vmeReadWithDummies splices a dummy transition in front of each named
// transition of the VME read cycle, taking over its preset.
func vmeReadWithDummies(names ...string) *stg.STG {
	g := vme.ReadSTG()
	net := g.Net
	for i, nm := range names {
		t := net.TransitionIndex(nm)
		d := g.AddDummy(fmt.Sprintf("eps%d", i))
		net.Transitions[d].Pre = net.Transitions[t].Pre
		for _, p := range net.Transitions[t].Pre {
			for j, u := range net.Places[p].Post {
				if u == t {
					net.Places[p].Post[j] = d
				}
			}
		}
		net.Transitions[t].Pre = nil
		net.Implicit(d, t, 0)
	}
	return g
}

// vmeReadWithToggles relabels the named signals' edges of the VME read
// cycle as toggles: BuildSG then takes its (marking, code) path.
func vmeReadWithToggles(signals ...string) *stg.STG {
	g := vme.ReadSTG()
	for _, s := range signals {
		for _, t := range g.TransitionsOf(g.SignalIndex(s)) {
			g.Labels[t].Dir = stg.Toggle
		}
	}
	return g
}

// pulseChain is doublePulseSeq without the place closing its cycle, entered
// from a marked start place: its final state is a deadlock that every
// consistent, persistent candidate keeps.
func pulseChain() *stg.STG {
	g := stg.New("pulse-chain")
	x := g.AddSignal("x", stg.Output)
	y := g.AddSignal("y", stg.Output)
	var chain []int
	for range 2 {
		chain = append(chain, g.AddTransition(x, stg.Rise), g.AddTransition(y, stg.Rise),
			g.AddTransition(x, stg.Fall), g.AddTransition(y, stg.Fall))
	}
	g.Net.Chain(chain...)
	g.Net.ArcPT(g.Net.AddPlace("start", 1), chain[0])
	return g
}

// productRounds lists the rounds of the ranked golden — every corpus
// model's base round and the round after each of its first ten survivors
// that still has conflicts — plus VME read variants that take BuildSG's
// other paths and failures (dummies, toggles, an invalid net, a full
// 64-signal code and a tight state cap) and a spec ending in a deadlock.
func productRounds(t *testing.T) []productRound {
	t.Helper()
	var rounds []productRound
	for _, m := range rankedModels(t, 2, 3, 4) {
		rounds = append(rounds, productRound{name: m.name, g: m.g, signal: "csc0"})
		all, err := scoreInsertions(explored(t, m.g), "csc0", rankedFirstRound, newEvalCtx(Options{Workers: 2}))
		if err != nil {
			continue
		}
		for _, s := range all {
			if s.key[0] == 0 {
				continue
			}
			cand, err := InsertSignalAt(m.g, "csc0", s.pair.r, s.pair.f)
			if err != nil {
				t.Fatal(err)
			}
			rounds = append(rounds, productRound{
				name: m.name + " after " + describeInsertion(m.g, "csc0", s.pair.r, s.pair.f),
				g:    cand, signal: "csc1",
			})
		}
	}
	invalid := vme.ReadSTG()
	invalid.Net.AddPlace("idle", 0)
	wide := vme.ReadSTG()
	for len(wide.Signals) < 64 {
		wide.AddSignal(fmt.Sprintf("idle%d", len(wide.Signals)), stg.Output)
	}
	return append(rounds,
		productRound{name: "vme-read+dummies", g: vmeReadWithDummies("LDS-", "DSr+", "D+"), signal: "csc0"},
		productRound{name: "vme-read+toggles", g: vmeReadWithToggles("D", "LDS"), signal: "csc0"},
		productRound{name: "vme-read+isolated place", g: invalid, signal: "csc0"},
		productRound{name: "vme-read+64 signals", g: wide, signal: "csc0"},
		productRound{name: "vme-read cap 20", g: vme.ReadSTG(), signal: "csc0", maxStates: 20},
		productRound{name: "pulse-chain", g: pulseChain(), signal: "csc0"},
	)
}

// sgShape is what the differential compares of a candidate's state graph.
type sgShape struct {
	states, arcs int
	codes        []ts.Code // sorted
}

func shapeOf(sg *ts.SG) *sgShape {
	if sg == nil {
		return nil
	}
	s := &sgShape{states: sg.NumStates(), arcs: sg.NumArcs()}
	for _, st := range sg.States {
		s.codes = append(s.codes, st.Code)
	}
	slices.Sort(s.codes)
	return s
}

// productShape is the shape of the candidate graph the product explored
// into sc last.
func productShape(pr *product, sc *productScratch) *sgShape {
	s := &sgShape{states: len(sc.mask), arcs: len(sc.arcs)}
	for i := range sc.mask {
		s.codes = append(s.codes, pr.code(sc, i))
	}
	slices.Sort(s.codes)
	return s
}

func (s *sgShape) equal(o *sgShape) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.states == o.states && s.arcs == o.arcs && slices.Equal(s.codes, o.codes)
}

// TestProductMatchesRebuild is the product's differential: for every
// enumerated pair of every round, the product's verdict — rejection reason
// and conflict count, as score counts it inside the base's code groups —
// and, wherever both build one, its state graph's state count, arc count
// and code multiset equal evaluateCandidate's on InsertSignalAt's STG,
// whose count comes from the pair list. The product runs at one and two
// workers. Both sides decide persistency by the mask rule of
// ts.IsPersistent, so every rebuilt graph's verdict is also checked against
// the pair scan of PersistencyViolations, which shares no code with it.
//
// Every rejection reason occurs except rejectUnsafe, which a safe base
// cannot produce. Its only source in the product is a second token in a
// splice place. x± inserted before t fires only when its splice place is
// empty. x± inserted after t gets a second token only if t fires again
// while x± is pending. Then t's postset is still virtually marked, so t
// either consumes part of it (and is blocked) or the base already puts a
// second token there. A base with an empty postset does not escape this
// argument either: after such a t fires, its preset can never be marked
// again in a safe net.
func TestProductMatchesRebuild(t *testing.T) {
	type outcome struct {
		v     verdict
		shape *sgShape
	}
	seen := make(map[reason]int)
	pairs := 0
	for _, rd := range productRounds(t) {
		ctx := newEvalCtx(Options{Workers: 2})
		pr, prs, err := newRound(explored(t, rd.g), rd.signal)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		base := pr.conflicts
		if rd.maxStates > 0 {
			pr.maxStates = rd.maxStates
		}
		want := make([]outcome, len(prs))
		if err := ctx.runPool(len(prs), func(_ *productScratch, i int) error {
			p := prs[i]
			cand, err := InsertSignalAt(rd.g, rd.signal, p.r, p.f)
			if err != nil {
				want[i].v = verdict{reason: rejectInvalid}
				return nil
			}
			sg, v := evaluateCandidate(cand, base, reach.Options{Budget: &budget.Budget{MaxStates: rd.maxStates}})
			if sg != nil && sg.IsPersistent() != (len(sg.PersistencyViolations()) == 0) {
				return fmt.Errorf("%s, %s: IsPersistent = %v, but %d persistency violations", rd.name,
					describeInsertion(rd.g, rd.signal, p.r, p.f), sg.IsPersistent(), len(sg.PersistencyViolations()))
			}
			want[i] = outcome{v: v, shape: shapeOf(sg)}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			var mu sync.Mutex
			var bad []string
			wctx := newEvalCtx(Options{Workers: w})
			if err := wctx.runPool(len(prs), func(sc *productScratch, i int) error {
				p := prs[i]
				// score explores again into the same scratch, so take
				// the shape first.
				var got outcome
				if pr.graph(sc, p.r, p.f) == none {
					got.shape = productShape(pr, sc)
				}
				got.v = pr.score(sc, p.r, p.f)
				if got.v != want[i].v || !got.shape.equal(want[i].shape) {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("%s: product %+v %+v, rebuild %+v %+v",
						describeInsertion(rd.g, rd.signal, p.r, p.f), got.v, got.shape, want[i].v, want[i].shape))
					mu.Unlock()
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				slices.Sort(bad)
				t.Errorf("%s w=%d: %d of %d pairs disagree, first: %s", rd.name, w, len(bad), len(prs), bad[0])
			}
		}
		for _, o := range want {
			seen[o.v.reason]++
		}
		pairs += len(prs)
	}
	for r := rejectInvalid; r < numReasons; r++ {
		if r != rejectUnsafe && seen[r] == 0 {
			t.Errorf("no pair rejected as %s", reasonNames[r])
		}
	}
	if seen[rejectUnsafe] != 0 {
		t.Errorf("%d pairs rejected as unsafe on safe bases", seen[rejectUnsafe])
	}
	t.Logf("%d pairs; accepted %d; rejected %v", pairs, seen[none], seen)
}

// TestScoreAllocatesNothing: on a warm worker scratch, scoring a pair on
// the product — exploration, the property checks and the conflict count —
// allocates nothing, on every pair of a spec without dummies.
func TestScoreAllocatesNothing(t *testing.T) {
	for _, m := range []namedSTG{{"vme-read-write", vme.ReadWriteSTG()}, {"cscring-4", gen.CSCRing(4)}} {
		ctx := newEvalCtx(Options{})
		pr, pairs, err := newRound(explored(t, m.g), "csc0")
		if err != nil {
			t.Fatal(err)
		}
		sc := ctx.scratch[0]
		for _, p := range pairs {
			pr.score(sc, p.r, p.f)
			if a := testing.AllocsPerRun(3, func() { pr.score(sc, p.r, p.f) }); a != 0 {
				t.Fatalf("%s: scoring %s allocates %v times", m.name, describeInsertion(m.g, "csc0", p.r, p.f), a)
			}
		}
	}
}
