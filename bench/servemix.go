package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stg"
)

// serveRate is the serve-mix open-loop arrival rate in requests per second.
const serveRate = 40

// requestTimeout bounds one request, from its due time to its answer.
const requestTimeout = 60 * time.Second

// serveLayerMetrics are the daemon-layer metrics; the batch workloads report
// them as 0.
var serveLayerMetrics = []string{
	"serve.hit_ratio", "serve.hit_p50_ms", "serve.miss_p50_ms",
	"serve.engine_runs", "serve.shed_total", "serve.generator_late_p99_ms",
}

// daemon is an in-process serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// startDaemon starts a server with the default configuration, the given
// worker count and a result cache of cacheEntries, and a client limited to
// conns connections.
func startDaemon(workers, cacheEntries, conns int) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: workers, CacheEntries: cacheEntries})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
		base: "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the client's connections, the listener and the server, and
// waits for the serving goroutine and the job workers to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Shutdown(ctx))
}

// do sends one request and decodes the response envelope.
func (d *daemon) do(method, path string, body []byte) (*serve.Response, int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

// counters scrapes GET /metrics (the JSON obs snapshot).
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap, err := obs.ParseSnapshot(data)
	if err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// jobTrace fetches a finished job's span tree and counters (GET
// /v1/jobs/{id}/trace).
func (d *daemon) jobTrace(job string) (*obs.Snapshot, error) {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + job + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	return obs.ParseSnapshot(data)
}

// answer is the outcome of one serve-mix request.
type answer struct {
	done    bool // answered (successfully or not) within the timeout
	cached  bool
	latency time.Duration // answer time minus due time
	resp    *serve.Response
	err     string
}

// pending is an async job the poller watches.
type pending struct {
	idx  int
	job  string
	due  time.Time
	sent time.Time
	next time.Time
}

// poller watches the async jobs of cache misses.
type poller struct {
	d       *daemon
	answers []answer
	// open counts the jobs handed over and not yet answered: while it is 0
	// and the sender waits, the daemon runs nothing.
	open atomic.Int64
	// traces, when not nil, receives each job's span tree, fetched as soon
	// as the job has answered, before the trace ring can evict it.
	traces map[string]*obs.Snapshot
	err    error // the first failed trace fetch
}

// terminal reports whether a job status is final.
func terminal(status string) bool {
	switch status {
	case "done", "failed", "canceled", "interrupted":
		return true
	}
	return false
}

// pollInterval grows with the job's age (1/32 of it, 250µs to 20ms), so the
// answer time of a job is observed within about 3% of its latency.
func pollInterval(age time.Duration) time.Duration {
	iv := age / 32
	if iv < 250*time.Microsecond {
		iv = 250 * time.Microsecond
	}
	if iv > 20*time.Millisecond {
		iv = 20 * time.Millisecond
	}
	return iv
}

// poll watches the async jobs handed over on in until in is closed and every
// job has answered or timed out, recording each answer.
func (pl *poller) poll(in <-chan pending) {
	var waiting []pending
	open := true
	for open || len(waiting) > 0 {
		var wake <-chan time.Time
		var timer *time.Timer
		if len(waiting) > 0 {
			next := waiting[0].next
			for _, p := range waiting[1:] {
				if p.next.Before(next) {
					next = p.next
				}
			}
			timer = time.NewTimer(time.Until(next))
			wake = timer.C
		}
		select {
		case p, ok := <-in:
			if !ok {
				open = false
			} else {
				p.next = time.Now().Add(pollInterval(0))
				waiting = append(waiting, p)
			}
		case <-wake:
		}
		if timer != nil {
			timer.Stop()
		}
		now := time.Now()
		kept := waiting[:0]
		for _, p := range waiting {
			if now.Before(p.next) {
				kept = append(kept, p)
				continue
			}
			resp, _, err := pl.d.do(http.MethodGet, "/v1/jobs/"+p.job, nil)
			at := time.Now()
			switch {
			case err != nil:
				pl.answers[p.idx] = answer{done: true, latency: at.Sub(p.due), err: err.Error()}
			case terminal(resp.Status):
				pl.answers[p.idx] = answer{done: true, latency: at.Sub(p.due), resp: resp}
			case at.Sub(p.due) > requestTimeout:
				pl.answers[p.idx] = answer{done: true, latency: at.Sub(p.due), err: "timed out"}
			default:
				p.next = at.Add(pollInterval(at.Sub(p.sent)))
				kept = append(kept, p)
				continue
			}
			pl.open.Add(-1)
			if _, seen := pl.traces[p.job]; pl.traces != nil && !seen && err == nil {
				snap, terr := pl.d.jobTrace(p.job)
				if terr != nil && pl.err == nil {
					pl.err = fmt.Errorf("bench: trace of job %s: %w", p.job, terr)
				}
				pl.traces[p.job] = snap
			}
		}
		waiting = kept
	}
}

// synthesizeBody is the POST /v1/synthesize body of a spec: no options (the
// sequential evaluator), answered asynchronously so that one slow cold run
// never holds up the open loop's next request.
func synthesizeBody(text string) ([]byte, error) {
	async := true
	return json.Marshal(serve.Request{Spec: text, Async: &async})
}

// defaultCacheEntries is the daemon's default result-cache size.
const defaultCacheEntries = 256

// runServeMix drives an in-process daemon with an open loop of seeded
// arrivals: one sender goroutine posts each request at its due time and one
// poller goroutine watches the async jobs of cache misses. Latency runs from
// the due time to the answer.
func runServeMix(r *run, cat []serveSpec, warmup string) error {
	cfg := r.cfg
	workers := runtime.GOMAXPROCS(0)
	names := []string{warmup}
	for _, s := range cat {
		names = append(names, s.name)
	}
	n := int(serveRate * cfg.window.Seconds())
	if n < 1 {
		n = 1
	}
	goroutines := runtime.NumGoroutine()
	var (
		base     []spec
		variants []int
		reqs     []serveRequest
		bodies   [][][]byte
		d        *daemon
		spare    []*daemon // the daemons of earlier set-ups, stopped untimed
	)
	err := r.timeSetups(cfg.setups, func() error {
		if d != nil {
			spare = append(spare, d)
			d = nil
		}
		specs, err := loadSpecs(cfg.root, names)
		if err != nil {
			return err
		}
		warm := specs[0]
		base = specs[1:]
		variants, reqs = planRequests(cat, n, cfg.window, cfg.seed)
		bodies = make([][][]byte, len(cat))
		cacheable := 1 // the warm-up variant
		for i, s := range base {
			if expected[s.name] == outcomeOK {
				cacheable += variants[i]
			}
			for v := 0; v < variants[i]; v++ {
				text, err := renameSignals(s.text, fmt.Sprintf("v%d_", v))
				if err != nil {
					return fmt.Errorf("bench: renaming %s: %w", s.name, err)
				}
				body, err := synthesizeBody(text)
				if err != nil {
					return err
				}
				bodies[i] = append(bodies[i], body)
			}
		}
		// The default cache holds every variant of a 30 s window; a longer
		// window gets a cache that still holds them all, so no variant is
		// evicted and the hit ratio does not depend on the window.
		if d, err = startDaemon(workers, max(defaultCacheEntries, cacheable), workers); err != nil {
			return err
		}
		// The untimed warm-up op: a variant no scheduled request uses.
		text, err := renameSignals(warm.text, "warm_")
		if err != nil {
			return err
		}
		body, err := synthesizeBody(text)
		if err != nil {
			return err
		}
		return d.warmUp(body)
	})
	if d != nil && err != nil {
		spare = append(spare, d)
	}
	for _, old := range spare {
		err = errors.Join(err, old.stop())
	}
	if err != nil {
		return err
	}

	if cfg.trace {
		r.refs = append(r.refs, sampleReference(refSamples)...) // the daemon is idle
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	pl := &poller{d: d, answers: make([]answer, len(reqs))}
	if cfg.trace {
		pl.traces = map[string]*obs.Snapshot{}
	}
	answers := pl.answers
	late := make([]float64, len(reqs))    // ms from due time to send time
	jobs := make(chan pending, len(reqs)) // never blocks the sender
	sentAt := make([]time.Duration, len(reqs))
	jobOf := make([]string, len(reqs)) // the job of each miss
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		pl.poll(jobs)
	}()
	var passes []float64 // reference kernel passes timed in the window, ms
	var nextPass time.Time
	start := time.Now()
	for i, q := range reqs {
		due := start.Add(q.at)
		// While the daemon runs nothing and the next send is at least
		// passGap away, at most four times a second, time one pass of the
		// reference kernel (reference.go), without a forced collection: the
		// host's speed during the window.
		if now := time.Now(); now.After(nextPass) && due.Sub(now) > passGap && pl.open.Load() == 0 {
			referenceKernel()
			passes = append(passes, ms(time.Since(now)))
			nextPass = now.Add(time.Second / 4)
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		resp, code, err := d.do(http.MethodPost, "/v1/synthesize", bodies[q.spec][q.variant])
		at := time.Now()
		late[i] = ms(sent.Sub(due))
		sentAt[i] = sent.Sub(start)
		switch {
		case err != nil:
			answers[i] = answer{done: true, latency: at.Sub(due), err: err.Error()}
		case code == http.StatusAccepted && !terminal(resp.Status):
			jobOf[i] = resp.JobID
			pl.open.Add(1)
			jobs <- pending{idx: i, job: resp.JobID, due: due, sent: sent}
		default:
			answers[i] = answer{done: true, cached: resp.Cached, latency: at.Sub(due), resp: resp}
			if code != http.StatusOK && code != http.StatusAccepted {
				answers[i].err = fmt.Sprintf("HTTP %d: %s", code, resp.Error)
			}
		}
	}
	close(jobs)
	<-polled
	elapsed := time.Since(start)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	counters, cerr := d.counters()
	if err := errors.Join(pl.err, cerr, d.stop()); err != nil {
		return fmt.Errorf("bench: daemon: %w", err)
	}
	if !settled(goroutines) {
		r.fail("goroutines still running after the daemon stopped")
	}
	if cfg.trace {
		r.refs = append(r.refs, sampleReference(refSamples)...)
	}

	checkAnswers(r, cat, base, variants, reqs, answers)
	literals, signals := verifyServed(r, cat, reqs, answers)
	slowdown := 1.0
	if len(passes) > 0 {
		slowdown = median(passes) * 4 / referenceMS
	}
	fmt.Fprintf(r.log, "workload %s seed %d: %d requests at %d/s in %.2fs, GOMAXPROCS %d, %d server workers, %d client connections, %d reference passes, median %.3f ms (slowdown %.3f)\n",
		cfg.workload, cfg.seed, len(reqs), serveRate, elapsed.Seconds(), runtime.GOMAXPROCS(0), workers, workers, len(passes), median(passes), slowdown)

	var all, hits, misses []float64
	bySpec := make([][]float64, len(cat))
	last := time.Duration(0)
	for i, a := range answers {
		if !a.done {
			continue
		}
		l := ms(a.latency)
		all = append(all, l)
		bySpec[reqs[i].spec] = append(bySpec[reqs[i].spec], l)
		if a.cached {
			hits = append(hits, l)
		} else {
			misses = append(misses, l)
		}
		if end := reqs[i].at + a.latency; end > last {
			last = end
		}
	}
	if cfg.trace {
		r.set("serve.hit_ratio", float64(len(hits))/float64(len(reqs)), fmt.Sprintf("%d hits of %d requests", len(hits), len(reqs)))
		r.set("serve.hit_p50_ms", median(hits), fmt.Sprintf("median of %d hits", len(hits)))
		r.set("serve.miss_p50_ms", median(misses), fmt.Sprintf("median of %d misses", len(misses)))
		r.set("serve.engine_runs", float64(counters["serve.engine_runs"]), "final /metrics scrape")
		r.set("serve.shed_total", float64(counters["serve.shed_total"]), "final /metrics scrape")
		lateP99, pct := tail(late, 0.99)
		r.set("serve.generator_late_p99_ms", lateP99, fmt.Sprintf("p%.2f of %d sends", 100*pct, len(late)))
		r.set("runtime.gc_cycles", gcCycles(gc0, gc1), fmt.Sprintf("over the %.1fs window", elapsed.Seconds()))
		r.set("runtime.reference_ms", median(r.refs), fmt.Sprintf("median of %d reference kernel samples", len(r.refs)))
		r.set("trace.overhead_ratio", 0, "not measured: the daemon traces every job")
		return serveLayers(r, base, reqs, answers, jobOf, sentAt, pl.traces)
	}

	var perSpec []float64
	for i, l := range bySpec {
		if len(l) > 0 {
			perSpec = append(perSpec, median(l))
			fmt.Fprintf(r.log, "  %-16s n=%-4d variants %-3d median %9.3f ms\n", cat[i].name, len(l), variants[i], median(l))
		}
	}
	p99, pct := tail(all, 0.99)
	// Only the cold engine runs in the tail are scaled to the reference
	// speed (one kernel pass in referenceMS/4). The arrival schedule sets the
	// open loop's rate, and the hits that set the median spend their time in
	// the loopback network stack, which does not slow down with the
	// reference kernel: over ten seeds, the median scaled by the kernel had
	// a spread of 0.30 against 0.10 raw.
	r.set("specs_per_s", float64(len(all))/last.Seconds(), fmt.Sprintf("%d answers, window start to last answer", len(all)))
	r.set("flow_geomean_ms", geomean(perSpec), fmt.Sprintf("geomean of %d per-spec medians", len(perSpec)))
	r.set("latency_p50_ms", median(all), fmt.Sprintf("median of %d requests", len(all)))
	r.set("latency_p99_ms", p99/slowdown, fmt.Sprintf("p%.2f of %d requests; raw %.6g", 100*pct, len(all), p99))
	r.set("literals_total", float64(literals), "verified netlists, summed over base specs")
	r.set("signals_total", float64(signals), "verified netlists, summed over base specs")
	return nil
}

// serveLayers sets the flow-layer metrics from the window's own cache
// misses: every distinct job's span tree and counters, as the daemon
// recorded them. The daemon parses each request before it looks up the
// cache, outside any job, so the parse time is the benchmark's own timing
// of stg.ParseG on the spec's text. With -trace-out, the jobs' spans are
// written as one trace, each job placed at its request's send time.
func serveLayers(r *run, base []spec, reqs []serveRequest, answers []answer, jobOf []string, sentAt []time.Duration, traces map[string]*obs.Snapshot) error {
	parseMS := make([]float64, len(base))
	baseSignals := make([]int, len(base))
	for i, s := range base {
		var samples []float64
		for k := 0; k < 5; k++ {
			samples = append(samples, timed(func() {
				g, err := stg.ParseG(strings.NewReader(s.text))
				if err != nil {
					r.fail("%s: parse: %v", s.name, err)
					return
				}
				baseSignals[i] = len(g.Signals)
			}))
		}
		parseMS[i] = median(samples)
	}
	var ops []*layerOp
	merged := &obs.Snapshot{}
	seen := map[string]bool{}
	for i, job := range jobOf {
		if job == "" || seen[job] {
			continue
		}
		seen[job] = true
		snap := traces[job]
		if snap == nil {
			r.fail("job %s: no trace", job)
			continue
		}
		times := layerTimes(snap.Spans)
		if len(times) != 1 {
			r.fail("job %s: %d span trees, want 1", job, len(times))
			continue
		}
		op := &layerOp{spec: reqs[i].spec, layerMS: times[0], counters: snap.Counters, allocMB: map[string]float64{}}
		op.layerMS["flow:parse"] = parseMS[op.spec]
		op.res = servedResult(r, answers[i], baseSignals[op.spec])
		ops = append(ops, op)
		merged.Spans = append(merged.Spans, shifted(snap.Spans, len(merged.Spans), float64(sentAt[i].Microseconds()))...)
	}
	fmt.Fprintf(r.log, "  layers from %d cache-miss jobs; allocation is not measured inside the daemon\n", len(ops))
	setLayerMetrics(r, base, ops)
	return writeTrace(r.cfg.traceOut, merged)
}

// servedResult is the part of an answer the layer metrics read: the
// verification's composed states and the inserted state signals.
func servedResult(r *run, a answer, baseSignals int) opResult {
	if a.resp == nil || a.resp.Status != "done" {
		return opResult{}
	}
	var res serve.SynthesizeResult
	if err := json.Unmarshal(a.resp.Result, &res); err != nil || res.Verification == nil {
		return opResult{} // already counted by checkAnswers
	}
	g, err := stg.ParseG(strings.NewReader(res.Spec))
	if err != nil {
		r.fail("served spec: %v", err)
		return opResult{}
	}
	return opResult{outcome: outcomeOK, inserted: len(g.Signals) - baseSignals, composed: res.Verification.States}
}

// shifted renumbers a job's spans from id base and moves them by offset µs,
// so several jobs' trees form one trace.
func shifted(spans []obs.SpanSnapshot, base int, offset float64) []obs.SpanSnapshot {
	out := make([]obs.SpanSnapshot, len(spans))
	for k, sp := range spans {
		sp.ID += base
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		sp.StartUS += offset
		sp.Events = append([]obs.EventSnapshot(nil), sp.Events...)
		for e := range sp.Events {
			sp.Events[e].TSUS += offset
		}
		out[k] = sp
	}
	return out
}

// warmUp posts one request and waits for its job, untimed.
func (d *daemon) warmUp(body []byte) error {
	resp, code, err := d.do(http.MethodPost, "/v1/synthesize", body)
	for err == nil && code < 300 && !terminal(resp.Status) {
		time.Sleep(time.Millisecond)
		resp, code, err = d.do(http.MethodGet, "/v1/jobs/"+resp.JobID, nil)
	}
	switch {
	case err != nil:
		return fmt.Errorf("bench: warm-up request: %w", err)
	case resp.Status != "done":
		return fmt.Errorf("bench: warm-up request: HTTP %d %s %s", code, resp.Status, resp.Error)
	}
	return nil
}

// checkAnswers compares every answer with the expected outcome of its base
// spec, every answer of a variant with that variant's first answer, and
// every variant's literal count with its base spec's.
func checkAnswers(r *run, cat []serveSpec, base []spec, variants []int, reqs []serveRequest, answers []answer) {
	r.attempted += len(reqs)
	firstResult := map[[2]int]string{}
	literals := map[int]int{}
	for i, a := range answers {
		q := reqs[i]
		name := cat[q.spec].name
		if !a.done || a.err != "" {
			r.fail("%s request %d: %s", name, i, a.err)
			continue
		}
		got := outcomeOK
		if a.resp.Status != "done" {
			got = classifyMessage(a.resp.Error)
		}
		if want := expected[name]; got != want {
			r.fail("%s request %d: outcome %q, want %q", name, i, got, want)
			continue
		}
		if got != outcomeOK {
			continue
		}
		var res serve.SynthesizeResult
		if err := json.Unmarshal(a.resp.Result, &res); err != nil {
			r.fail("%s request %d: result: %v", name, i, err)
			continue
		}
		if res.Verification == nil || !res.Verification.OK {
			r.fail("%s request %d: not verified", name, i)
		}
		key := [2]int{q.spec, q.variant}
		if prev, ok := firstResult[key]; !ok {
			firstResult[key] = res.Equations
		} else if prev != res.Equations {
			r.fail("%s variant %d: equations differ between answers", name, q.variant)
		}
		if lits, ok := literals[q.spec]; !ok {
			literals[q.spec] = res.Literals
		} else if lits != res.Literals {
			r.fail("%s variant %d: %d literals, another variant has %d", name, q.variant, res.Literals, lits)
		}
	}
}

// verifyServed re-runs sim.Verify once on each distinct served netlist,
// after the timed window, and returns the literal and signal totals over
// base specs.
func verifyServed(r *run, cat []serveSpec, reqs []serveRequest, answers []answer) (literals, signals int) {
	seen := map[[2]int]bool{}
	counted := map[int]bool{}
	for i, a := range answers {
		q := reqs[i]
		key := [2]int{q.spec, q.variant}
		if seen[key] || !a.done || a.resp == nil || a.resp.Status != "done" {
			continue
		}
		seen[key] = true
		var res serve.SynthesizeResult
		if err := json.Unmarshal(a.resp.Result, &res); err != nil {
			continue // already counted by checkAnswers
		}
		nl, err := logic.ParseEquations(strings.NewReader(res.Equations))
		if err != nil {
			r.fail("%s variant %d: equations: %v", cat[q.spec].name, q.variant, err)
			continue
		}
		g, err := stg.ParseG(strings.NewReader(res.Spec))
		if err != nil {
			r.fail("%s variant %d: spec: %v", cat[q.spec].name, q.variant, err)
			continue
		}
		vres, err := sim.Verify(nl, g, sim.Options{})
		if err != nil || !vres.OK() {
			r.fail("%s variant %d: re-verification: err=%v result=%+v", cat[q.spec].name, q.variant, err, vres)
			continue
		}
		if !counted[q.spec] {
			counted[q.spec] = true
			literals += nl.LiteralCount()
			signals += len(nl.Signals)
		}
	}
	return literals, signals
}
