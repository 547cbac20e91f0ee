// Command report regenerates the experiment tables of EXPERIMENTS.md: for
// every figure of the paper it runs the corresponding pipeline and prints
// the measured result next to the paper's expectation.
//
// Usage:
//
//	go run ./cmd/report                    # experiment tables
//	go test -bench ... | go run ./cmd/report -bench-json > BENCH_synth.json
//	go run ./cmd/report -regress [-threshold 0.15] OLD.json NEW.json
//	go run ./cmd/report -ab PARENT.txt CHANGE.txt
//
// -merge-metrics file1,file2 embeds validated metrics snapshots (from
// cmd/synth/cmd/reach -metrics runs) into the bench JSON under
// "metrics_snapshots", keyed by base filename.
//
// -regress compares two bench-json records and exits non-zero when any
// benchmark present in both slowed down by more than -threshold (a
// fraction; 0.15 allows +15%). Benchmarks in only one record are
// informational, never failures.
//
// -ab compares the `go test -bench -benchmem` output of interleaved runs of
// a parent and a change on one host (scripts/bench.sh -ab REV): per-row
// ranges of ns/op, B/op and allocs/op, rows whose ns/op ranges separate
// flagged, and a non-zero exit when a row's states or CSC search counts
// (candidates, explored, rebuilt) differ.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/structural"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/techmap"
	"repro/internal/timing"
	"repro/internal/unfold"
	"repro/internal/vme"
)

func main() {
	benchJSON := flag.Bool("bench-json", false,
		"parse 'go test -bench' output on stdin into the benchmark trajectory JSON on stdout")
	mergeMetrics := flag.String("merge-metrics", "",
		"comma-separated metrics snapshot files (from -metrics runs) to embed in the bench JSON")
	regress := flag.Bool("regress", false,
		"compare two bench-json records (positional args: OLD.json NEW.json); exit non-zero on ns/op regressions past -threshold")
	threshold := flag.Float64("threshold", 0.15,
		"relative ns/op growth tolerated by -regress before it fails (0.15 = +15%)")
	minNs := flag.Float64("min-ns", 1000,
		"baseline ns/op floor under which -regress reports but never gates (too fast to time reliably)")
	ab := flag.Bool("ab", false,
		"compare interleaved bench runs of a parent and a change (positional args: PARENT.txt CHANGE.txt); exit non-zero when a row's states or search counts differ")
	flag.Parse()
	if *ab {
		if flag.NArg() != 2 {
			log.Fatal("usage: report -ab PARENT.txt CHANGE.txt")
		}
		if err := runAB(os.Stdout, flag.Arg(0), flag.Arg(1), runtime.GOMAXPROCS(0)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchJSON {
		if err := writeBenchJSON(os.Stdin, os.Stdout, *mergeMetrics); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *regress {
		if flag.NArg() != 2 {
			log.Fatal("usage: report -regress [-threshold F] OLD.json NEW.json")
		}
		if err := runRegress(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *minNs); err != nil {
			log.Fatal(err)
		}
		return
	}
	report()
}

func report() {
	fmt.Println("| Exp | Paper expectation | Measured |")
	fmt.Println("|---|---|---|")

	row := func(id, expect, got string) {
		fmt.Printf("| %s | %s | %s |\n", id, expect, got)
	}

	// E-F2/3.
	g, err := stg.FromWaveform(vme.ReadWaveform())
	check(err)
	row("E-F2/3", "waveform compiles to a strongly connected marked graph, 10 transitions, 2 tokens",
		fmt.Sprintf("MG=%v, SCC=%v, %d transitions, %d tokens",
			g.Net.IsMarkedGraph(), g.Net.StronglyConnected(),
			len(g.Net.Transitions), g.Net.InitialMarking().Tokens()))

	// E-F4.
	sg, err := reach.BuildSG(g, reach.Options{})
	check(err)
	confl := sg.CSCConflicts()
	code := ""
	if len(confl) > 0 {
		for _, name := range vme.SignalOrder {
			if confl[0].Code.Bit(sg.SignalIndex(name)) {
				code += "1"
			} else {
				code += "0"
			}
		}
	}
	row("E-F4", "14 states; one CSC conflict pair with code 10110",
		fmt.Sprintf("%d states; %d conflict(s) at code %s", sg.NumStates(), len(confl), code))

	// E-F5.
	rw := vme.ReadWriteSTG()
	rwSG, err := reach.BuildSG(rw, reach.Options{})
	check(err)
	row("E-F5", "choice spec: 2 choice places, initial read/write choice",
		fmt.Sprintf("%d choice places, %d initial arcs, %d states",
			len(rw.Net.ChoicePlaces()), len(rwSG.Out[rwSG.Initial]), rwSG.NumStates()))

	// E-F6.
	reduced, trace := structural.Reduce(rw.Net)
	cover, ok := structural.SMCover(reduced)
	sym, err := symbolic.Reach(reduced)
	check(err)
	approx, _, err := symbolic.InvariantApprox(reduced, sym.M)
	check(err)
	dense, err := symbolic.NewDense(reduced)
	check(err)
	row("E-F6", "linear reductions shrink the net; 2 SM components cover it; invariant conjunction exact; dense encoding ≪ one-var-per-place",
		fmt.Sprintf("%d→%d transitions (%d rules); cover=%d (ok=%v); exact=%v; %d places → %d bits",
			len(rw.Net.Transitions), len(reduced.Transitions), len(trace),
			len(cover), ok, approx == sym.States, len(reduced.Places), dense.Bits()))

	// Fig 3 reduction.
	r3, _ := structural.Reduce(g.Net)
	row("E-F6b", "Fig 3 net reduces to a single self-loop transition",
		fmt.Sprintf("%d transition(s), %d place(s)", len(r3.Transitions), len(r3.Places)))

	// E-F7.
	cscSpec, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	check(err)
	cscSG, err := reach.BuildSG(cscSpec, reach.Options{})
	check(err)
	row("E-F7", "csc0 inserted (+ before LDS+, - before D-): all implementability properties hold",
		fmt.Sprintf("%d states; %s", cscSG.NumStates(), cscSG.CheckImplementability()))

	// E-EQ.
	nl, err := logic.Synthesize(cscSG, logic.ComplexGate)
	check(err)
	match := true
	names := make([]string, len(cscSG.Signals))
	for i, s := range cscSG.Signals {
		names[i] = s.Name
	}
	for _, eq := range vme.PaperReadEquations() {
		idx := nl.SignalIndex(eq.Signal)
		for s := range cscSG.States {
			c := uint64(cscSG.States[s].Code)
			env := map[string]bool{}
			for i, n := range names {
				env[n] = c&(1<<uint(i)) != 0
			}
			if nl.Next(c, idx) != eq.Eval(env) {
				match = false
			}
		}
	}
	row("E-EQ", "D=LDTACK·csc0; LDS=D+csc0; DTACK=D; csc0=DSr·(csc0+LDTACK')",
		fmt.Sprintf("equal on all reachable codes: %v; equations: %s",
			match, strings.ReplaceAll(nl.Equations(), "\n", "; ")))

	// E-F8.
	for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC} {
		n2, err := logic.Synthesize(cscSG, style)
		check(err)
		res, err := sim.Verify(n2, cscSpec, sim.Options{})
		check(err)
		row("E-F8/"+style.String(), "speed-independent",
			fmt.Sprintf("SI=%v (%d composed states, %d literals)", res.OK(), res.States, n2.LiteralCount()))
	}

	// E-F9.
	mapped, err := techmap.Map(nl, cscSpec, techmap.Options{MaxFanIn: 2})
	check(err)
	resM, err := sim.Verify(mapped, cscSpec, sim.Options{})
	check(err)
	row("E-F9", "2-input decomposition exists with multiply-acknowledged map0; single-acknowledgment variant is hazardous (see sim tests)",
		fmt.Sprintf("max fan-in %d, SI=%v; wires: %s", mapped.MaxFanIn(), resM.OK(),
			strings.Join(mapped.Signals[6:], ",")))

	// E-F10.
	implSG, err := sim.StateGraph(nl, cscSpec, sim.Options{})
	check(err)
	back, err := regions.Synthesize(implSG)
	check(err)
	backSG, err := reach.BuildSG(back, reach.Options{})
	check(err)
	row("E-F10", "back-annotated STG regenerates the implementation behaviour",
		fmt.Sprintf("impl SG %d states → PN with %d places → SG %d states",
			implSG.NumStates(), len(back.Net.Places), backSG.NumStates()))

	// E-F11.
	sol, err := encoding.SolveCSC(g, 0)
	check(err)
	base, err := logic.Synthesize(sol.SG, logic.ComplexGate)
	check(err)
	timed, _, err := timing.AddTimingOrder(g, "LDTACK-", "DSr+")
	check(err)
	sgA, err := reach.BuildSG(timed, reach.Options{})
	check(err)
	nlA, err := logic.Synthesize(sgA, logic.ComplexGate)
	check(err)
	both, cons2, err := timing.Retrigger(timed, "LDS-", "D-", "DSr-")
	check(err)
	sgC, err := reach.BuildSG(both, reach.Options{})
	check(err)
	nlC, err := logic.Synthesize(sgC, logic.ComplexGate)
	check(err)
	resC, err := sim.Verify(nlC, both, sim.Options{Constraints: []sim.RelativeOrder{cons2}})
	check(err)
	row("E-F11", "timing assumptions remove csc0 and shrink logic (11a), combine to the simplest circuit (11c: LDS=DSr)",
		fmt.Sprintf("untimed %d lits; (a) CSC=%v %d lits; (c) CSC=%v %d lits SI=%v [%s]",
			base.LiteralCount(), sgA.HasCSC(), nlA.LiteralCount(),
			sgC.HasCSC(), nlC.LiteralCount(), resC.OK(),
			strings.ReplaceAll(nlC.Equations(), "\n", "; ")))

	// TSE.
	delays := make([]timing.Delay, len(g.Net.Transitions))
	for i := range delays {
		delays[i] = timing.Fixed(2)
	}
	delays[g.Net.TransitionIndex("DSr+")] = timing.Delay{Min: 40, Max: 80}
	sep, err := timing.MaxSeparation(timing.Spec{G: g, Delays: delays},
		timing.Occurrence{Transition: g.Net.TransitionIndex("LDTACK-"), Cycle: 2},
		timing.Occurrence{Transition: g.Net.TransitionIndex("DSr+"), Cycle: 3}, 4, 0)
	check(err)
	row("E-TSE", "slow bus / fast device gives sep(LDTACK-,DSr+next) < 0",
		fmt.Sprintf("max separation = %d", sep))

	// E-SYM engine table.
	fmt.Println()
	fmt.Println("| Workload | explicit states | symbolic states (BDD nodes) | unfolding (cond/events/cutoffs) | stubborn states | deadlocks |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, w := range []struct {
		name string
		net  *petri.Net
	}{
		{"vme-read", g.Net},
		{"vme-read-write", rw.Net},
		{"toggles-8", gen.IndependentToggles(8)},
		{"toggles-14", gen.IndependentToggles(14)},
		{"muller-5", gen.MullerPipeline(5).Net},
		{"phil-4", gen.Philosophers(4)},
	} {
		n := w.net
		exp, err := reach.Explore(n, reach.Options{})
		check(err)
		symR, err := symbolic.Reach(n)
		check(err)
		u, err := unfold.Build(n, unfold.Options{})
		check(err)
		c, e, k := u.Stats()
		st, err := stubborn.Explore(n, stubborn.Options{})
		check(err)
		fmt.Printf("| %s | %d | %.0f (%d) | %d/%d/%d | %d | full=%d reduced=%d |\n",
			w.name, exp.NumStates(), symR.Count, symR.PeakNodes, c, e, k,
			st.States, len(exp.Deadlocks()), len(st.Deadlocks))
	}

	// Flow summary.
	fmt.Println()
	rep, err := core.Synthesize(g, core.Options{})
	check(err)
	fmt.Println("Full flow on vme-read:")
	fmt.Println("```")
	fmt.Print(rep.Summary())
	fmt.Println("```")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
