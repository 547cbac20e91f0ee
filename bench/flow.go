package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
)

// opResult is what one op produced, reduced to what the checks compare.
type opResult struct {
	outcome  outcome
	eqns     string
	csc      string
	netlist  *logic.Netlist
	spec     *stg.STG // final spec, after any state-signal insertion
	inserted int      // state signals the encoding inserted
	composed int      // states of the verification composition
}

// synthOp is one op: parse the .g text and run the whole flow, the work
// cmd/synth does. With a registry, the parse runs under a "flow:parse" root
// span and core.Synthesize records its own flow, phase and engine spans and
// counters there; nil runs untraced.
func synthOp(text string, workers int, reg *obs.Registry) opResult {
	span := reg.Root("flow:parse")
	g, err := stg.ParseG(strings.NewReader(text))
	span.End()
	if err != nil {
		return opResult{outcome: classify(err)}
	}
	rep, err := core.Synthesize(g, core.Options{Workers: workers, Obs: reg})
	if err != nil {
		return opResult{outcome: classify(err)}
	}
	return opResult{
		outcome: outcomeOK, eqns: rep.Equations(), csc: rep.CSC, netlist: rep.Netlist, spec: rep.Spec,
		inserted: len(rep.Spec.Signals) - len(g.Signals), composed: rep.Verification.States,
	}
}

// specCheck holds a spec's first result; every later op on it must agree.
type specCheck struct {
	name  string
	want  outcome
	first *opResult
	ms    []float64 // untraced op times, scaled to the reference host speed
	raw   []float64 // the same, as measured
}

// check compares one op's result with the expected outcome and with the
// spec's first result, counting a mismatch as a failure of the run.
func (c *specCheck) check(r *run, got opResult) {
	switch {
	case got.outcome != c.want:
		r.fail("%s: outcome %q, want %q", c.name, got.outcome, c.want)
	case c.first == nil:
		c.first = &got
	case got.eqns != c.first.eqns || got.csc != c.first.csc:
		r.fail("%s: equations or state coding differ between rounds", c.name)
	}
}

// verifyNetlists re-runs sim.Verify once on each distinct netlist, after
// the timed window, and returns the literal and signal totals of the
// verified netlists.
func verifyNetlists(r *run, checks []*specCheck) (literals, signals int) {
	for _, c := range checks {
		if c.first == nil || c.first.netlist == nil {
			continue
		}
		res, err := sim.Verify(c.first.netlist, c.first.spec, sim.Options{})
		if err != nil || !res.OK() {
			r.fail("%s: re-verification: err=%v result=%+v", c.name, err, res)
			continue
		}
		literals += c.first.netlist.LiteralCount()
		signals += len(c.first.netlist.Signals)
	}
	return literals, signals
}

// layerCounters are the engine counters the per-layer metrics read.
var layerCounters = []string{
	"reach.states", "encoding.candidates", "encoding.memo_hits", "encoding.memo_misses", "logic.minimizer_calls",
}

// layerOp is one traced op: the layer times its spans give, the engine
// counters it moved and the bytes its encoding and logic phases allocated.
type layerOp struct {
	spec     int
	res      opResult
	layerMS  map[string]float64 // root and phase span name -> ms
	counters map[string]int64
	allocMB  map[string]float64 // phase span name -> MB
	allocAt  uint64
}

// layerPass is a batch workload's traced run: every traced op records into
// one registry, so the spans form one trace, and every traced op has an
// untraced twin for the overhead.
type layerPass struct {
	reg     *obs.Registry
	workers int
	ops     []*layerOp
	cur     *layerOp          // the op running now
	traced  map[int][]float64 // spec -> traced op ms
	plain   map[int][]float64 // spec -> untraced op ms
}

func newLayerPass(workers int) *layerPass {
	p := &layerPass{
		reg: obs.NewRegistry(), workers: workers,
		traced: map[int][]float64{}, plain: map[int][]float64{},
	}
	// The span stream reads the heap's allocation total as the encoding and
	// logic phases open and close. Core opens and closes its phase spans on
	// the goroutine that runs the op, so p.cur is only read there; the
	// engines' spans on worker goroutines return at the name check.
	p.reg.SetStream(func(ev obs.StreamEvent) {
		if ev.Name != "phase:encoding" && ev.Name != "phase:logic" {
			return
		}
		switch ev.Type {
		case "open":
			p.cur.allocAt = allocated()
		case "close":
			p.cur.allocMB[ev.Name] += float64(allocated()-p.cur.allocAt) / (1 << 20)
		}
	})
	return p
}

// allocated reads the process's cumulative heap allocation.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// tracedOp runs one op into the pass registry and keeps the counters it
// moved.
func (p *layerPass) tracedOp(idx int, text string) *layerOp {
	op := &layerOp{spec: idx, counters: map[string]int64{}, allocMB: map[string]float64{}}
	for _, name := range layerCounters {
		op.counters[name] = -p.reg.Counter(name).Value()
	}
	p.cur = op
	op.res = synthOp(text, p.workers, p.reg)
	p.cur = nil
	for _, name := range layerCounters {
		op.counters[name] += p.reg.Counter(name).Value()
	}
	return op
}

// round runs every spec once traced and once untraced, in the given order,
// alternating which of the two goes first from round to round. Both
// results are checked.
func (p *layerPass) round(r *run, specs []spec, checks []*specCheck, order []int, n int) {
	for _, i := range order {
		var op *layerOp
		var plain opResult
		traced := func() {
			d := timed(func() { op = p.tracedOp(i, specs[i].text) })
			p.traced[i] = append(p.traced[i], d)
		}
		untraced := func() {
			d := timed(func() { plain = synthOp(specs[i].text, p.workers, nil) })
			p.plain[i] = append(p.plain[i], d)
		}
		if n%2 == 0 {
			traced()
			untraced()
		} else {
			untraced()
			traced()
		}
		r.attempted += 2
		p.ops = append(p.ops, op)
		checks[i].check(r, plain)
		checks[i].check(r, op.res)
	}
}

// finish reads the layer times back from the spans, writes the trace file
// when asked, and sets every layer metric the flow layers give.
func (p *layerPass) finish(r *run, specs []spec, traceOut string) error {
	snap := p.reg.Snapshot()
	times := layerTimes(snap.Spans)
	if len(times) != len(p.ops) {
		return fmt.Errorf("bench: %d traced ops but %d span trees", len(p.ops), len(times))
	}
	for k, op := range p.ops {
		op.layerMS = times[k]
	}
	if err := writeTrace(traceOut, snap); err != nil {
		return err
	}
	var tracedMS, plainMS float64
	for i := range specs {
		tracedMS += median(p.traced[i])
		plainMS += median(p.plain[i])
	}
	setLayerMetrics(r, specs, p.ops)
	r.set("trace.overhead_ratio", ratio(tracedMS, plainMS), "traced over untraced op time, per-spec medians summed")
	return nil
}

// layerTimes splits a snapshot's spans into ops and reads each op's layer
// times: its root spans (flow:parse, flow:synthesize) and the phase spans
// under them, in ms. An op starts at a root whose name the current op
// already has.
func layerTimes(spans []obs.SpanSnapshot) []map[string]float64 {
	var ops []map[string]float64
	var cur map[string]float64
	owner := map[int]map[string]float64{} // root span id -> its op
	for _, sp := range spans {
		if sp.Parent < 0 {
			if _, dup := cur[sp.Name]; cur == nil || dup {
				cur = map[string]float64{}
				ops = append(ops, cur)
			}
			cur[sp.Name] = sp.DurUS / 1e3
			owner[sp.ID] = cur
		} else if op := owner[sp.Parent]; op != nil && obs.Category(sp.Name) == "phase" {
			op[sp.Name] += sp.DurUS / 1e3
		}
	}
	return ops
}

// writeTrace writes snap as Chrome trace_event JSON to path; "" writes
// nothing.
func writeTrace(path string, snap *obs.Snapshot) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	if err := snap.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	return nil
}

// layers maps each timed layer to the span it is read from. ts.check is
// the part of core's flow outside its phases: validation and the
// implementability checks. Dummy contraction runs inside phase:sg.
var layers = []struct{ name, span string }{
	{"stg.parse_ms", "flow:parse"},
	{"reach.sg_ms", "phase:sg"},
	{"ts.check_ms", ""},
	{"encoding.solve_ms", "phase:encoding"},
	{"logic.synth_ms", "phase:logic"},
	{"sim.verify_ms", "phase:verify"},
}

// layerMS is one op's time in a layer of the layers table.
func layerMS(op *layerOp, span string) float64 {
	if span != "" {
		return op.layerMS[span]
	}
	check := op.layerMS["flow:synthesize"]
	for name, d := range op.layerMS {
		if strings.HasPrefix(name, "phase:") {
			check -= d
		}
	}
	return check
}

// setLayerMetrics sets the flow-layer metrics from the traced ops. Per
// spec: the median layer time and allocation over its ops, and the counts
// of its first op (they repeat exactly). Then the sum over specs. The base
// CSC conflicts are counted untimed, once per spec.
func setLayerMetrics(r *run, specs []spec, ops []*layerOp) {
	bySpec := map[int][]*layerOp{}
	for _, op := range ops {
		bySpec[op.spec] = append(bySpec[op.spec], op)
	}
	sum := map[string]float64{}
	counts := map[string]float64{}
	var encMB, logicMB, composed, inserted, conflicts float64
	for i := range specs {
		sops := bySpec[i]
		if len(sops) == 0 {
			continue
		}
		for _, l := range layers {
			sum[l.name] += median(collect(sops, func(op *layerOp) float64 { return layerMS(op, l.span) }))
		}
		encMB += median(collect(sops, func(op *layerOp) float64 { return op.allocMB["phase:encoding"] }))
		logicMB += median(collect(sops, func(op *layerOp) float64 { return op.allocMB["phase:logic"] }))
		first := sops[0]
		for _, name := range layerCounters {
			counts[name] += float64(first.counters[name])
		}
		composed += float64(first.res.composed)
		inserted += float64(first.res.inserted)
		conflicts += float64(baseConflicts(r, specs[i]))
	}
	var total float64
	for _, l := range layers {
		total += sum[l.name]
	}
	share := func(name string) float64 { return ratio(sum[name], total) }
	hits, lookups := counts["encoding.memo_hits"], counts["encoding.memo_hits"]+counts["encoding.memo_misses"]
	note := fmt.Sprintf("sum over %d specs of the per-spec median of %d traced ops", len(bySpec), len(ops))
	r.set("stg.parse_ms", sum["stg.parse_ms"], note)
	r.set("reach.sg_ms", sum["reach.sg_ms"], note+", dummy contraction included")
	r.set("reach.states", counts["reach.states"], "base state graphs, summed over specs")
	r.set("reach.states_per_s", ratio(counts["reach.states"], sum["reach.sg_ms"]/1e3), "")
	r.set("reach.share", share("reach.sg_ms"), "of the summed layer time")
	r.set("ts.check_ms", sum["ts.check_ms"], note+", core's flow outside its phases")
	r.set("ts.csc_conflicts", conflicts, "base CSC conflict pairs, summed over specs, counted untimed")
	r.set("encoding.solve_ms", sum["encoding.solve_ms"], note)
	r.set("encoding.share", share("encoding.solve_ms"), "of the summed layer time")
	r.set("encoding.candidates", counts["encoding.candidates"], "evaluated candidates, summed over specs")
	r.set("encoding.memo_hit_ratio", ratio(hits, lookups), fmt.Sprintf("%.0f hits of %.0f lookups (the parallel evaluator's memo)", hits, lookups))
	r.set("encoding.candidates_per_s", ratio(counts["encoding.candidates"], sum["encoding.solve_ms"]/1e3), "")
	r.set("encoding.state_signals", inserted, "inserted state signals, summed over specs")
	r.set("encoding.alloc_mb", encMB, "median per spec, summed")
	r.set("logic.synth_ms", sum["logic.synth_ms"], note)
	r.set("logic.share", share("logic.synth_ms"), "of the summed layer time")
	r.set("logic.minimizer_calls", counts["logic.minimizer_calls"], "summed over specs (counted by the parallel deriver only)")
	r.set("logic.alloc_mb", logicMB, "median per spec, summed")
	r.set("sim.verify_ms", sum["sim.verify_ms"], note)
	r.set("sim.share", share("sim.verify_ms"), "of the summed layer time")
	r.set("sim.composed_states", composed, "summed over specs")
}

// baseConflicts counts the CSC conflict pairs of a spec's state graph
// before any state signal is inserted, or -1 when it cannot be built.
func baseConflicts(r *run, s spec) int {
	g, err := stg.ParseG(strings.NewReader(s.text))
	if err != nil {
		r.fail("%s: parse: %v", s.name, err)
		return -1
	}
	sg, err := reach.BuildSG(g, reach.Options{})
	if err == nil {
		sg, err = ts.ContractDummies(sg)
	}
	if err != nil {
		r.fail("%s: state graph: %v", s.name, err)
		return -1
	}
	return len(sg.CSCConflicts())
}

func collect(ops []*layerOp, f func(*layerOp) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs one op from a collected heap, as a fresh cmd/synth process
// starts, and returns its time in ms. The collection is not timed.
func timed(op func()) float64 {
	runtime.GC()
	t0 := time.Now()
	op()
	return ms(time.Since(t0))
}

// gcCycles counts the collections the program triggered between two
// readings, leaving out the ones timed forces between ops.
func gcCycles(before, after runtime.MemStats) float64 {
	return float64((after.NumGC - before.NumGC) - (after.NumForcedGC - before.NumForcedGC))
}

// settled waits up to a second for the goroutine count to fall back to
// base and reports whether it did. Nothing may keep running after an op or
// a stopped daemon: it would slow the reference kernel timed next.
func settled(base int) bool {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
