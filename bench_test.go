package repro

// The benchmark harness regenerates every figure-level experiment of the
// paper (ids from DESIGN.md). Run with:
//
//	go test -bench=. -benchmem
//
// Scaling sweeps (E-SYM, E-UNF, E-POR) print the engine-vs-engine series
// whose shape Section 2.2 describes: explicit enumeration explodes
// exponentially with concurrency while symbolic, unfolding and stubborn-set
// engines stay polynomial.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/burstmode"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/prop"
	"repro/internal/reach"
	"repro/internal/regions"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/structural"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/techmap"
	"repro/internal/timing"
	"repro/internal/ts"
	"repro/internal/unfold"
	"repro/internal/vme"
)

// E-F2/3 — waveform to STG compilation.
func BenchmarkFig3ReadSTG(b *testing.B) {
	w := vme.ReadWaveform()
	for i := 0; i < b.N; i++ {
		if _, err := stg.FromWaveform(w); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F4 — state graph generation of the READ cycle.
func BenchmarkFig4StateGraph(b *testing.B) {
	g := vme.ReadSTG()
	for i := 0; i < b.N; i++ {
		sg, err := reach.BuildSG(g, reach.Options{})
		if err != nil || sg.NumStates() != 14 {
			b.Fatal("wrong SG")
		}
	}
}

// E-F5 — state graph of the READ+WRITE spec with choice.
func BenchmarkFig5ReadWrite(b *testing.B) {
	g := vme.ReadWriteSTG()
	for i := 0; i < b.N; i++ {
		if _, err := reach.BuildSG(g, reach.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F6 — linear reductions, SM cover, invariant approximation, dense
// encoding.
func BenchmarkFig6Reductions(b *testing.B) {
	g := vme.ReadWriteSTG()
	for i := 0; i < b.N; i++ {
		reduced, _ := structural.Reduce(g.Net)
		if _, ok := structural.SMCover(reduced); !ok {
			b.Fatal("no SM cover")
		}
		if _, err := symbolic.NewDense(reduced); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F7 — CSC resolution by state-signal insertion (manual paper solution).
func BenchmarkFig7CSC(b *testing.B) {
	g := vme.ReadSTG()
	lds := g.Net.TransitionIndex("LDS+")
	dm := g.Net.TransitionIndex("D-")
	for i := 0; i < b.N; i++ {
		g2, err := encoding.InsertSignal(g, "csc0", lds, dm)
		if err != nil {
			b.Fatal(err)
		}
		sg, err := reach.BuildSG(g2, reach.Options{})
		if err != nil || !sg.HasCSC() {
			b.Fatal("CSC not resolved")
		}
	}
}

// E-F7b — automatic CSC solving (search over insertion points). Every
// insertion pair is scored on the product of the round's base state graph;
// only solved candidates and ranked survivors are rebuilt as STGs. The
// worker sweep on the generated conflict-rich ring measures the scoring
// pass's fan-out over the pool; w1 already reuses per-worker scratch. The
// chosen insertion is identical at every worker count. cscring-4 exhausts
// its three signal insertions without solving CSC. Every row also reports
// its search's account (reportSearch).
func BenchmarkSolveCSC(b *testing.B) {
	for _, spec := range []struct {
		name string
		g    *stg.STG
	}{{"vme-read", vme.ReadSTG()}, {"vme-read-write", vme.ReadWriteSTG()}} {
		b.Run(spec.name, func(b *testing.B) {
			reportSearch(b, spec.g, 0, 1, encoding.Options{})
			for i := 0; i < b.N; i++ {
				if _, err := encoding.SolveCSC(spec.g, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cscring-4", func(b *testing.B) {
		g := gen.CSCRing(4)
		reportSearch(b, g, 3, 1, encoding.Options{})
		for i := 0; i < b.N; i++ {
			_, err := encoding.SolveCSC(g, 3)
			if err == nil || !strings.Contains(err.Error(), "CSC not solved") {
				b.Fatalf("cscring-4: want a CSC not solved error, got %v", err)
			}
		}
	})
	// The flow's encoding phase on cscring-4: five solutions at two
	// workers, so the search continues from ten first-round survivors.
	b.Run("cscring-4/flow", func(b *testing.B) {
		g := gen.CSCRing(4)
		reportSearch(b, g, 3, 5, encoding.Options{Workers: 2})
		for i := 0; i < b.N; i++ {
			_, err := encoding.SolutionsOpts(g, 3, 5, encoding.Options{Workers: 2})
			if err == nil || !strings.Contains(err.Error(), "CSC not solved") {
				b.Fatalf("cscring-4/flow: want a CSC not solved error, got %v", err)
			}
		}
	})
	ring := gen.CSCRing(3)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cscring-3/w%d", w), func(b *testing.B) {
			reportSearch(b, ring, 3, 1, encoding.Options{Workers: w})
			for i := 0; i < b.N; i++ {
				if _, err := encoding.SolutionsOpts(ring, 3, 1, encoding.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportSearch runs a SolveCSC row's search once with the encoding counters
// on, before the timed loop, and reports its account on the row: the
// insertion pairs judged (candidates), the pairs explored on the product
// and the candidates rebuilt as STGs. The counts are deterministic, so
// cmd/report -ab requires both sides of a comparison to agree on them.
func reportSearch(b *testing.B, g *stg.STG, maxSignals, limit int, opts encoding.Options) {
	reg := obs.NewRegistry()
	root := reg.Root("bench")
	opts.Obs = root
	_, _ = encoding.SolutionsOpts(g, maxSignals, limit, opts) // the timed loop checks the outcome
	root.End()
	b.ResetTimer() // also clears the reported metrics, so report after it
	counters := reg.Snapshot().Counters
	for _, unit := range []string{"candidates", "explored", "rebuilt"} {
		b.ReportMetric(float64(counters["encoding."+unit]), unit)
	}
}

// E-EQ — next-state function derivation and minimization. The worker sweep
// on the solved conflict-rich ring measures the fan-out of the per-signal
// minimizations; w1 already shares one state-graph pass across signals.
// Functions are identical at every worker count.
func BenchmarkEquationDerivation(b *testing.B) {
	b.Run("vme-read", func(b *testing.B) {
		g := vme.ReadSTG()
		g2, err := encoding.InsertSignal(g, "csc0",
			g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
		if err != nil {
			b.Fatal(err)
		}
		sg, err := reach.BuildSG(g2, reach.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := logic.DeriveAll(sg); err != nil {
				b.Fatal(err)
			}
		}
	})
	sol, err := encoding.SolveCSC(gen.CSCRing(2), 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cscring-2/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := logic.DeriveAllOpts(sol.SG, logic.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E-F8 — synthesis + speed-independence verification per architecture.
func BenchmarkFig8Verify(b *testing.B) {
	g := vme.ReadSTG()
	spec, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		b.Fatal(err)
	}
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC} {
		b.Run(style.String(), func(b *testing.B) {
			nl, err := logic.Synthesize(sg, style)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Verify(nl, spec, sim.Options{})
				if err != nil || !res.OK() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// E-F9 — hazard-aware decomposition to a two-input library.
func BenchmarkFig9Map(b *testing.B) {
	g := vme.ReadSTG()
	spec, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		b.Fatal(err)
	}
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nl, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := techmap.Map(nl, spec, techmap.Options{MaxFanIn: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F10 — back-annotation: PN synthesis from the implementation SG.
func BenchmarkFig10Regions(b *testing.B) {
	sg, err := reach.BuildSG(vme.ReadSTG(), reach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regions.Synthesize(sg); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F11 — timing-optimized synthesis (both assumptions, Figure 11c).
func BenchmarkFig11Timed(b *testing.B) {
	g := vme.ReadSTG()
	for i := 0; i < b.N; i++ {
		timed, _, err := timing.AddTimingOrder(g, "LDTACK-", "DSr+")
		if err != nil {
			b.Fatal(err)
		}
		timed, _, err = timing.Retrigger(timed, "LDS-", "D-", "DSr-")
		if err != nil {
			b.Fatal(err)
		}
		sg, err := reach.BuildSG(timed, reach.Options{})
		if err != nil || !sg.HasCSC() {
			b.Fatal("Fig 11c CSC")
		}
		if _, err := logic.Synthesize(sg, logic.ComplexGate); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F11b — exact time-separation analysis on the READ cycle.
func BenchmarkTSE(b *testing.B) {
	g := vme.ReadSTG()
	delays := make([]timing.Delay, len(g.Net.Transitions))
	for i := range delays {
		delays[i] = timing.Fixed(1)
	}
	delays[g.Net.TransitionIndex("DSr+")] = timing.Delay{Min: 50, Max: 60}
	delays[g.Net.TransitionIndex("LDS-")] = timing.Delay{Min: 1, Max: 3}
	s := timing.Spec{G: g, Delays: delays}
	from := timing.Occurrence{Transition: g.Net.TransitionIndex("LDTACK-"), Cycle: 2}
	to := timing.Occurrence{Transition: g.Net.TransitionIndex("DSr+"), Cycle: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.MaxSeparation(s, from, to, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// E-SYM — explicit vs symbolic reachability over concurrency depth: the
// crossover of Section 2.2.
func BenchmarkSymbolicVsExplicit(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16} {
		net := gen.IndependentToggles(n)
		b.Run(fmt.Sprintf("explicit/toggles-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rg, err := reach.Explore(net, reach.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rg.NumStates()), "states")
			}
		})
		b.Run(fmt.Sprintf("symbolic/toggles-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := symbolic.Reach(net)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Count, "states")
				b.ReportMetric(float64(res.PeakNodes), "bddnodes")
			}
		})
	}
	for _, n := range []int{3, 5, 7} {
		g := gen.MullerPipeline(n)
		b.Run(fmt.Sprintf("explicit/muller-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rg, err := reach.Explore(g.Net, reach.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rg.NumStates()), "states")
			}
		})
		b.Run(fmt.Sprintf("symbolic/muller-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := symbolic.Reach(g.Net)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Count, "states")
			}
		})
	}
}

// BDD-KERNEL — the symbolic kernel's operating points on the two scaling
// families: default settings, aggressive garbage collection (threshold 1
// forces a collect-and-adapt cycle every iteration), and dynamic variable
// reordering. Peak live nodes is the memory trajectory; the wall-clock
// column is the throughput one.
func BenchmarkSymbolicKernel(b *testing.B) {
	models := []struct {
		name string
		net  *petri.Net
	}{
		{"toggles-12", gen.IndependentToggles(12)},
		{"toggles-16", gen.IndependentToggles(16)},
		{"muller-5", gen.MullerPipeline(5).Net},
		{"muller-7", gen.MullerPipeline(7).Net},
	}
	modes := []struct {
		name string
		opts symbolic.Options
	}{
		{"default", symbolic.Options{}},
		{"gc", symbolic.Options{GCThreshold: 1}},
		{"sift", symbolic.Options{Sift: true}},
	}
	for _, mdl := range models {
		for _, mode := range modes {
			b.Run(mdl.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := symbolic.ReachOpts(mdl.net, mode.opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.PeakNodes), "peaknodes")
					b.ReportMetric(res.Stats.CacheHitRate()*100, "cachehit%")
				}
			})
		}
	}
}

// E-UNF — unfolding prefix vs reachability graph size.
func BenchmarkUnfoldingVsRG(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		net := gen.IndependentToggles(n)
		b.Run(fmt.Sprintf("toggles-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := unfold.Build(net, unfold.Options{})
				if err != nil {
					b.Fatal(err)
				}
				_, events, _ := u.Stats()
				b.ReportMetric(float64(events), "events")
			}
		})
	}
}

// E-POR — stubborn-set reduction factors.
func BenchmarkStubbornReduction(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		net := gen.IndependentToggles(n)
		b.Run(fmt.Sprintf("toggles-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := stubborn.Explore(net, stubborn.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
	for _, n := range []int{4, 6} {
		net := gen.Philosophers(n)
		b.Run(fmt.Sprintf("phil-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := stubborn.Explore(net, stubborn.Options{})
				if err != nil || len(res.Deadlocks) == 0 {
					b.Fatal("deadlock must be found")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// E-BM — burst-mode synthesis with hazard-free two-level minimization.
func BenchmarkBurstModeSynth(b *testing.B) {
	m := burstmode.NewMachine("dma-grant",
		[]string{"req", "dav", "abort"},
		[]string{"grant", "busy"})
	s0 := m.AddState()
	s1 := m.AddState()
	s2 := m.AddState()
	m.AddArc(s0, []burstmode.Edge{{Sig: 0, Rise: true}, {Sig: 1, Rise: true}},
		[]burstmode.Edge{{Sig: 0, Rise: true}}, s1)
	m.AddArc(s1, []burstmode.Edge{{Sig: 0, Rise: false}, {Sig: 1, Rise: false}},
		[]burstmode.Edge{{Sig: 0, Rise: false}}, s0)
	m.AddArc(s0, []burstmode.Edge{{Sig: 2, Rise: true}},
		[]burstmode.Edge{{Sig: 1, Rise: true}}, s2)
	m.AddArc(s2, []burstmode.Edge{{Sig: 2, Rise: false}},
		[]burstmode.Edge{{Sig: 1, Rise: false}}, s0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := burstmode.Synthesize(m); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end flow benchmark: spec to verified netlist. muller-8 (92,736
// states, 16 signals) already has CSC: its flow builds one state graph,
// runs no encoding search and derives its logic once, on the BDD-ISOP path.
func BenchmarkFullFlow(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *stg.STG
	}{
		{"vme-read", vme.ReadSTG()},
		{"vme-read-write", vme.ReadWriteSTG()},
		{"muller-8", gen.MullerPipeline(8)},
	} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := core.Synthesize(tc.g, core.Options{Workers: w})
					if err != nil || !rep.Verification.OK() {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// layerSpecs are the specs of the flow-layer benches: the paper's two VME
// specs and muller-8, the benchmark's slowest op.
var layerSpecs = []struct {
	name string
	g    *stg.STG
}{
	{"vme-read", vme.ReadSTG()},
	{"vme-read-write", vme.ReadWriteSTG()},
	{"muller-8", gen.MullerPipeline(8)},
}

// E-VER — the spec's state graph build, the flow's phase:sg exploration.
func BenchmarkBuildSG(b *testing.B) {
	for _, tc := range layerSpecs {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sg, err := reach.BuildSG(tc.g, reach.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sg.NumStates()), "states")
			}
		})
	}
}

// E-VER — implementation verification as the flow's phase:verify runs it:
// the flow's netlist composed with its spec's mirror, handed the flow's
// state graph. The flow itself runs outside the timer.
func BenchmarkVerify(b *testing.B) {
	for _, tc := range layerSpecs {
		rep, err := core.Synthesize(tc.g, core.Options{SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Verify(rep.Netlist, rep.Spec, sim.Options{SG: rep.SG})
				if err != nil || !res.OK() {
					b.Fatalf("verification failed: %v %v", err, res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// E-MASK — the flow's Section 2.1 property check: CheckImplementability on
// the contracted base state graph of phase:sg, built outside the timer.
func BenchmarkImplementability(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *stg.STG
	}{
		{"vme-read-write", vme.ReadWriteSTG()},
		{"muller-8", gen.MullerPipeline(8)},
	} {
		raw, err := reach.BuildSG(tc.g, reach.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sg, err := ts.ContractDummies(raw)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if imp := sg.CheckImplementability(); !imp.Persistent || !imp.DeadlockFree {
					b.Fatalf("%s: %v", tc.name, imp)
				}
			}
		})
	}
}

// E-PARSE — reading spec and netlist text, which every daemon request does
// before its cache lookup and every batch op does first: vme-read's .g, the
// .g text of muller-8 (the largest workload spec), and the flow's vme-read
// netlist as .eqn.
func BenchmarkParse(b *testing.B) {
	vmeG, err := os.ReadFile("testdata/vme-read.g")
	if err != nil {
		b.Fatal(err)
	}
	var mullerG, vmeEqn strings.Builder
	if err := gen.MullerPipeline(8).WriteG(&mullerG); err != nil {
		b.Fatal(err)
	}
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := rep.Netlist.WriteEquations(&vmeEqn); err != nil {
		b.Fatal(err)
	}
	parseG := func(r io.Reader) error { _, err := stg.ParseG(r); return err }
	parseEqn := func(r io.Reader) error { _, err := logic.ParseEquations(r); return err }
	for _, tc := range []struct {
		name, text string
		parse      func(io.Reader) error
	}{
		{"g/vme-read", string(vmeG), parseG},
		{"g/muller-8", mullerG.String(), parseG},
		{"eqn/vme-read", vmeEqn.String(), parseEqn},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tc.parse(strings.NewReader(tc.text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E-SERVE — service-layer latency through the full HTTP/JSON path: a cold
// synthesize runs the engines on every request (cache disabled), a cached
// one replays the content-addressed result. The gap is the price of the
// flow itself versus the daemon overhead (routing, JSON, cache lookup).
func BenchmarkServeSynthesize(b *testing.B) {
	spec, err := os.ReadFile("testdata/vme-read.g")
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"spec": string(spec)})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string, wantCached bool) {
		resp, err := http.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out serve.Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Status != "done" {
			b.Fatalf("synthesize: %d %q %q (%v)", resp.StatusCode, out.Status, out.Error, err)
		}
		if out.Cached != wantCached {
			b.Fatalf("cached = %v, want %v", out.Cached, wantCached)
		}
	}
	newBenchServer := func(b *testing.B, cfg serve.Config) *httptest.Server {
		srv, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		return ts
	}
	b.Run("cold", func(b *testing.B) {
		ts := newBenchServer(b, serve.Config{CacheEntries: -1}) // cache disabled
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL, false)
		}
	})
	b.Run("cached", func(b *testing.B) {
		ts := newBenchServer(b, serve.Config{})
		post(b, ts.URL, false) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL, true)
		}
	})
	// Durable variants isolate the write-ahead-journal overhead: cold-durable
	// adds an fsync'd accept/start/finish record set per run (vs cold),
	// cached-durable shows the warm path is journal-free (vs cached).
	b.Run("cold-durable", func(b *testing.B) {
		ts := newBenchServer(b, serve.Config{CacheEntries: -1, DataDir: b.TempDir()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL, false)
		}
	})
	b.Run("cached-durable", func(b *testing.B) {
		ts := newBenchServer(b, serve.Config{DataDir: b.TempDir()})
		post(b, ts.URL, false) // prime both cache tiers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL, true)
		}
	})
	// disk-hit measures the persisted path: every iteration runs against a
	// freshly restarted server (cold memory tier, warm disk tier), so the
	// timed request reads, verifies and promotes the on-disk entry.
	b.Run("disk-hit", func(b *testing.B) {
		dir := b.TempDir()
		prime, err := serve.New(serve.Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		pts := httptest.NewServer(prime.Handler())
		post(b, pts.URL, false) // prime the disk tier
		pts.Close()
		if err := prime.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, err := serve.New(serve.Config{DataDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			post(b, ts.URL, true) // disk hit on a cold memory tier
			b.StopTimer()
			ts.Close()
			srv.Shutdown(context.Background())
			b.StartTimer()
		}
	})
}

// E-PROP — temporal-property checking: the Standard() implementability
// suite re-derived through the general checker, explicit vs symbolic, on
// the paper's READ cycle and a concurrency-heavy Muller pipeline.
func BenchmarkPropCheck(b *testing.B) {
	models := []struct {
		name string
		g    *stg.STG
	}{
		{"vme-read", vme.ReadSTG()},
		{"muller-5", gen.MullerPipeline(5)},
	}
	props := prop.Standard()
	for _, mdl := range models {
		b.Run(mdl.name+"/explicit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := prop.Check(mdl.g, props, prop.Options{Engine: prop.EngineExplicit})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(rep.Verdicts)), "props")
			}
		})
		b.Run(mdl.name+"/symbolic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prop.Check(mdl.g, props, prop.Options{Engine: prop.EngineSymbolic}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E-CONF — STG-level trace conformance (implementation verification, §2.1).
func BenchmarkConformance(b *testing.B) {
	g := vme.ReadSTG()
	impl, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viol, err := sim.ConformsSTG(impl, g)
		if err != nil || len(viol) != 0 {
			b.Fatal("conformance must hold")
		}
	}
}

// E-BOUND — boundedness with covering witness (§2.1 property #1).
func BenchmarkBoundedness(b *testing.B) {
	net := vme.ReadWriteSTG().Net
	for i := 0; i < b.N; i++ {
		res, err := reach.CheckBounded(net, 0)
		if err != nil || !res.Bounded {
			b.Fatal("read/write net is bounded")
		}
	}
}

// E-SYMDEAD — fully symbolic deadlock detection (§2.2).
func BenchmarkSymbolicDeadlock(b *testing.B) {
	net := gen.Philosophers(5)
	for i := 0; i < b.N; i++ {
		res, err := symbolic.Reach(net)
		if err != nil {
			b.Fatal(err)
		}
		if _, dead := symbolic.DeadStates(net, res); dead == 0 {
			b.Fatal("philosophers must deadlock")
		}
	}
}

// E-MIN — exact two-level minimization, the layer the synthesis profile
// points at. sg-vme-read-write minimizes the non-input next-state functions
// of vme-read-write's solved state graph: the flow's own traffic, a sparse
// 8-variable care set. dense-12 is a seeded 12-variable function with on-
// and off-sets of about 45% each, the shape that favours merging the whole
// minterm space.
func BenchmarkMinimize(b *testing.B) {
	type fn struct {
		n       int
		on, off []uint64
	}
	sol, err := encoding.SolveCSC(vme.ReadWriteSTG(), 0)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := logic.DeriveAll(sol.SG)
	if err != nil {
		b.Fatal(err)
	}
	var sg []fn
	for _, f := range fs {
		sg = append(sg, fn{f.N, f.On, f.Off})
	}
	rng := rand.New(rand.NewSource(12))
	dense := fn{n: 12}
	for m := uint64(0); m < 1<<12; m++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			dense.on = append(dense.on, m)
		case r < 0.90:
			dense.off = append(dense.off, m)
		}
	}
	for _, tc := range []struct {
		name string
		fns  []fn
	}{
		{"sg-vme-read-write", sg},
		{"dense-12", []fn{dense}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range tc.fns {
					boolmin.MinimizeOnOff(f.on, f.off, f.n)
				}
			}
		})
	}
}

func BenchmarkTokenGame(b *testing.B) {
	g := vme.ReadSTG()
	n := g.Net
	m := n.InitialMarking()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range n.EnabledList(m) {
			next := n.Fire(m, t)
			_ = next
			break
		}
	}
}
