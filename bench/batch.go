package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// minGroupMS is the op time each spec accumulates per untraced round: a
// cheap spec runs several ops in a row, so its median rests on about as
// many milliseconds of samples as a slow spec's.
const minGroupMS = 100.0

// runBatch runs a batch workload (csc-search, concurrent-sg): one client
// runs whole rounds, every spec in seeded random order, while the window is
// open (see moreRounds). Untraced, it reports the end-to-end metrics;
// traced, each round runs every spec once with core's tracing on and once
// with it off, and it reports the per-layer metrics.
func runBatch(r *run, names []string, warmup string) error {
	cfg := r.cfg
	workers := runtime.GOMAXPROCS(0)
	var specs []spec
	err := r.timeSetups(cfg.setups, func() error {
		var err error
		if specs, err = loadSpecs(cfg.root, append([]string{warmup}, names...)); err != nil {
			return err
		}
		warm := specs[0]
		specs = specs[1:]
		// The untimed warm-up op.
		if got := synthOp(warm.text, workers, nil).outcome; got != expected[warm.name] {
			return fmt.Errorf("bench: warm-up op on %s: outcome %q", warm.name, got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	checks := make([]*specCheck, len(specs))
	for i, s := range specs {
		checks[i] = &specCheck{name: s.name, want: expected[s.name]}
	}
	nextOrder := roundOrders(cfg.seed, len(specs))
	if cfg.trace {
		return traceBatch(r, specs, checks, nextOrder, workers)
	}

	goroutines := runtime.NumGoroutine()
	prevRef := sampleReference(1)[0]
	r.refs = append(r.refs, prevRef)
	start := time.Now()
	rounds := 0
	for ; moreRounds(start, rounds, cfg.window); rounds++ {
		for _, i := range nextOrder() {
			var group []float64
			for sum := 0.0; sum < minGroupMS; {
				var got opResult
				raw := timed(func() { got = synthOp(specs[i].text, workers, nil) })
				if !settled(goroutines) {
					r.fail("%s: goroutines still running after the op", specs[i].name)
				}
				r.attempted++
				checks[i].check(r, got)
				checks[i].raw = append(checks[i].raw, raw)
				group = append(group, raw)
				sum += raw
			}
			// Scale the group by the reference samples on either side of it.
			ref := sampleReference(1)[0]
			r.refs = append(r.refs, ref)
			for _, raw := range group {
				checks[i].ms = append(checks[i].ms, raw*referenceMS/((prevRef+ref)/2))
			}
			prevRef = ref
		}
	}
	elapsed := time.Since(start)
	literals, signals := verifyNetlists(r, checks)
	fmt.Fprintf(r.log, "workload %s seed %d: %d rounds of %d specs, %d ops in %.2fs, GOMAXPROCS %d, %d workers, reference kernel median %.3f ms\n",
		cfg.workload, cfg.seed, rounds, len(specs), r.attempted, elapsed.Seconds(), runtime.GOMAXPROCS(0), workers, median(r.refs))

	// Every timing comes from the per-spec rows, so the number of ops each
	// spec ran does not weigh in.
	var perSpec []float64
	total, slowest := 0.0, 0.0
	for _, c := range checks {
		med := median(c.ms)
		fmt.Fprintf(r.log, "  %-16s n=%-4d median %10.3f ms (raw %10.3f ms)  %s\n", c.name, len(c.ms), med, median(c.raw), c.want)
		perSpec = append(perSpec, med)
		total += med
		slowest = math.Max(slowest, med)
	}
	note := fmt.Sprintf("from %d per-spec medians of scaled op times", len(perSpec))
	r.set("specs_per_s", float64(len(perSpec))/(total/1e3), "one op of every spec, "+note)
	r.set("flow_geomean_ms", geomean(perSpec), "geomean "+note)
	r.set("latency_p50_ms", median(perSpec), "median "+note)
	r.set("latency_p99_ms", slowest, "slowest "+note)
	r.set("literals_total", float64(literals), "verified netlists, summed over specs")
	r.set("signals_total", float64(signals), "verified netlists, summed over specs")
	return nil
}

// traceBatch is the traced run of a batch workload: whole rounds of the
// layer pass while the window is open.
func traceBatch(r *run, specs []spec, checks []*specCheck, nextOrder func() []int, workers int) error {
	cfg := r.cfg
	pass := newLayerPass(workers)
	r.refs = append(r.refs, sampleReference(refSamples)...)
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	rounds := 0
	for ; moreRounds(start, rounds, cfg.window); rounds++ {
		pass.round(r, specs, checks, nextOrder(), rounds)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&gc1)
	r.refs = append(r.refs, sampleReference(refSamples)...)
	verifyNetlists(r, checks)
	fmt.Fprintf(r.log, "workload %s seed %d (traced): %d rounds of %d specs in %.2fs, GOMAXPROCS %d, %d workers\n",
		cfg.workload, cfg.seed, rounds, len(specs), elapsed.Seconds(), runtime.GOMAXPROCS(0), workers)
	if err := pass.finish(r, specs, cfg.traceOut); err != nil {
		return err
	}
	r.set("runtime.gc_cycles", gcCycles(gc0, gc1), fmt.Sprintf("over the %.1fs window", elapsed.Seconds()))
	r.set("runtime.reference_ms", median(r.refs), fmt.Sprintf("median of %d reference kernel samples", len(r.refs)))
	for _, name := range serveLayerMetrics {
		r.set(name, 0, "no daemon in this workload")
	}
	return nil
}

// moreRounds reports whether another round fits the window. A round starts
// while at least half an average round's time remains, so a run overshoots
// its window by at most half a round.
func moreRounds(start time.Time, rounds int, window time.Duration) bool {
	if rounds == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*rounds) < window
}

// roundOrders returns the seeded source of round orders: each call gives
// the next round's permutation of the n specs.
func roundOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// timeSetups runs the set-up n times, each from a collected heap and scaled
// by the reference samples on either side of it (reference.go), and records
// the median as setup_s. The state the last set-up leaves behind is what
// the run uses.
func (r *run) timeSetups(n int, setup func() error) error {
	prevRef := sampleReference(1)[0]
	var raw, scaled []float64
	for i := 0; i < n; i++ {
		var err error
		ms := timed(func() { err = setup() })
		if err != nil {
			return err
		}
		ref := sampleReference(1)[0]
		raw = append(raw, ms/1e3)
		scaled = append(scaled, ms/1e3*referenceMS/((prevRef+ref)/2))
		prevRef = ref
	}
	r.set("setup_s", median(scaled), fmt.Sprintf("median of %d set-ups; raw %.6g", n, median(raw)))
	return nil
}
