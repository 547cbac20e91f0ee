// Package serve is the synthesis-as-a-service layer behind cmd/serve: an
// HTTP/JSON daemon that runs the paper's flow (parse → analysis → encoding
// → logic → verification) as bounded, cancellable, panic-contained jobs.
//
// Endpoints:
//
//	POST   /v1/parse       parse a .g spec, report structure + content hash
//	POST   /v1/analyze     state graph + implementability suite
//	POST   /v1/synthesize  full synthesis flow (core.Synthesize)
//	POST   /v1/verify      compose an .eqn netlist against the spec mirror
//	                       and/or check temporal properties (internal/prop)
//	GET    /v1/jobs/{id}          poll an async job
//	GET    /v1/jobs/{id}/trace    the job's span tree (obs JSON snapshot;
//	                              ?format=chrome for trace_event JSON)
//	GET    /v1/jobs/{id}/events   live progress (Server-Sent Events)
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /metrics               aggregated obs snapshot (JSON by default;
//	                              Accept: text/plain for Prometheus text)
//
// Every request carries a 128-bit trace id — honored from an incoming W3C
// traceparent header, minted otherwise — echoed in the X-Trace-Id response
// header and the trace_id envelope field, threaded through the journal (so
// it survives crash recovery) and stamped on the job's retained span tree.
//
// Requests are deduplicated by content address — SHA-256 over the
// canonical .g form (stg.CanonicalHash) plus a canonical encoding of the
// result-shaping options — through an LRU result cache and a singleflight
// table: concurrent identical requests share one engine run, repeated ones
// replay the stored bytes without touching the engines at all.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prop"
	"repro/internal/stg"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the job worker-pool size (default GOMAXPROCS).
	Workers int
	// Queue is the job queue depth; a full queue rejects with 503
	// (default 64).
	Queue int
	// CacheEntries and CacheBytes bound the result cache (defaults 256
	// entries, 64 MiB). Setting either negative disables caching.
	CacheEntries int
	CacheBytes   int64
	// AsyncThreshold is the transition count above which a request with no
	// explicit "async" field returns a job handle instead of blocking
	// (default 256).
	AsyncThreshold int
	// JobTimeout is a wall-clock ceiling applied to every job on top of
	// the per-request timeout_ms (default none).
	JobTimeout time.Duration
	// DataDir enables durability: a write-ahead job journal
	// (<DataDir>/journal.jsonl, replayed on startup — accepted jobs are
	// re-enqueued, jobs that died mid-run are reported as interrupted) and
	// a disk-backed result cache (<DataDir>/cache/, LRU-bounded by
	// CacheEntries/CacheBytes) that survives restarts byte-identically.
	// Empty runs fully in memory.
	DataDir string
	// ShedCost bounds the total admission cost in flight (each job costs
	// its requested max_states, or 2^20 when unbounded); past it, requests
	// are shed with 503 + Retry-After. 0 selects 4 × Queue × 2^20 — a
	// generous ceiling the plain queue bound normally beats, unless jobs
	// carry large explicit budgets. Negative disables shedding.
	ShedCost int64
	// ShedBase and ShedCap bound the decorrelated-jitter Retry-After hints
	// (defaults 1s and 30s).
	ShedBase, ShedCap time.Duration
	// Registry receives the aggregated server metrics; a fresh registry is
	// created when nil.
	Registry *obs.Registry
	// Logger receives structured daemon logs (access log, journal warnings,
	// job lifecycle), every record stamped with the request's trace id. Nil
	// keeps the library silent (a disabled handler is installed).
	Logger *slog.Logger
	// TraceEntries and TraceBytes bound the per-job trace ring — the
	// newest-N, size-capped store of finished jobs' span trees behind
	// GET /v1/jobs/{id}/trace (defaults 64 entries, 16 MiB). Setting
	// TraceEntries negative disables retention.
	TraceEntries int
	TraceBytes   int64
	// StreamHeartbeat is the SSE comment-heartbeat interval (default 15s).
	StreamHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.AsyncThreshold <= 0 {
		c.AsyncThreshold = 256
	}
	if c.ShedCost == 0 {
		c.ShedCost = 4 * int64(c.Queue) * defaultJobCost
	}
	if c.ShedBase <= 0 {
		c.ShedBase = time.Second
	}
	if c.ShedCap <= 0 {
		c.ShedCap = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(nopHandler{})
	}
	if c.TraceEntries == 0 {
		c.TraceEntries = 64
	}
	if c.TraceBytes == 0 {
		c.TraceBytes = 16 << 20
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	return c
}

// Server is the daemon state: worker pool, job table, result cache and
// metrics registry. Create with New, serve via Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	traces  *obs.TraceRing // nil when Config.TraceEntries < 0
	cache   *cache
	disk    *diskCache // nil without Config.DataDir
	journal *journal   // nil without Config.DataDir
	gate    *shedGate
	mux     *http.ServeMux
	root    http.Handler // mux wrapped in the telemetry middleware

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job creation order, for history eviction
	flight map[string]*job
	queue  chan *job
	closed bool
	seq    int

	wg       sync.WaitGroup
	depth    atomic.Int64
	draining atomic.Bool // set the instant Shutdown begins; flips /readyz

	requests, cacheHits, cacheMisses, cacheEvictions *obs.Counter
	engineRuns, sharedFlights                        *obs.Counter
	jobsDone, jobsFailed, jobsCanceled               *obs.Counter
	jobsRecovered, jobsInterrupted, jobsRetried      *obs.Counter
	diskHits, diskEvictions, diskCorrupt             *obs.Counter
	traceEvictions, sseDropped                       *obs.Counter
	queueDepth, cacheEntries, cacheBytes             *obs.Gauge
	diskEntries, diskBytes                           *obs.Gauge
	traceEntries, traceBytes                         *obs.Gauge
	latency                                          *obs.Histogram

	// testBudgetHook, when set by a test, is installed as the fault-injection
	// hook on every job budget (see budget.Budget.Hook). Nil in production.
	testBudgetHook func(site string) error
}

// New builds a Server, replays the journal under Config.DataDir (if any)
// and starts the worker pool. Recovery happens before the first worker
// runs: jobs accepted-but-unstarted at the crash are back in the queue and
// jobs that died mid-run are pollable as "interrupted" by the time New
// returns.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		log:    cfg.Logger,
		cache:  newCache(cfg.CacheEntries, cfg.CacheBytes),
		jobs:   make(map[string]*job),
		flight: make(map[string]*job),
		queue:  make(chan *job, cfg.Queue),
	}
	if cfg.TraceEntries > 0 {
		s.traces = obs.NewTraceRing(cfg.TraceEntries, cfg.TraceBytes)
	}
	s.requests = s.reg.Counter("serve.requests")
	s.cacheHits = s.reg.Counter("serve.cache_hits")
	s.cacheMisses = s.reg.Counter("serve.cache_misses")
	s.cacheEvictions = s.reg.Counter("serve.cache_evictions")
	s.engineRuns = s.reg.Counter("serve.engine_runs")
	s.sharedFlights = s.reg.Counter("serve.singleflight_shared")
	s.jobsDone = s.reg.Counter("serve.jobs_done")
	s.jobsFailed = s.reg.Counter("serve.jobs_failed")
	s.jobsCanceled = s.reg.Counter("serve.jobs_canceled")
	s.jobsRecovered = s.reg.Counter("serve.jobs_recovered")
	s.jobsInterrupted = s.reg.Counter("serve.jobs_interrupted")
	s.jobsRetried = s.reg.Counter("serve.jobs_retried")
	s.diskHits = s.reg.Counter("serve.cache_disk_hits")
	s.diskEvictions = s.reg.Counter("serve.cache_disk_evictions")
	s.diskCorrupt = s.reg.Counter("serve.cache_disk_corrupt")
	s.traceEvictions = s.reg.Counter("serve.trace_evictions")
	s.sseDropped = s.reg.Counter("serve.sse_dropped")
	s.queueDepth = s.reg.Gauge("serve.queue_depth")
	s.cacheEntries = s.reg.Gauge("serve.cache_entries")
	s.cacheBytes = s.reg.Gauge("serve.cache_bytes")
	s.diskEntries = s.reg.Gauge("serve.cache_disk_entries")
	s.diskBytes = s.reg.Gauge("serve.cache_disk_bytes")
	s.traceEntries = s.reg.Gauge("serve.trace_entries")
	s.traceBytes = s.reg.Gauge("serve.trace_bytes")
	s.latency = s.reg.Histogram("serve.latency_us", obs.Pow2Buckets(30)...)
	s.gate = newShedGate(cfg.ShedCost, cfg.ShedBase, cfg.ShedCap,
		s.reg.Counter("serve.shed_total"), s.reg.Gauge("serve.inflight_cost"))
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/parse", s.handleParse)
	s.mux.HandleFunc("POST /v1/analyze", s.handleRun("analyze"))
	s.mux.HandleFunc("POST /v1/synthesize", s.handleRun("synthesize"))
	s.mux.HandleFunc("POST /v1/verify", s.handleRun("verify"))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.root = s.telemetry(s.mux)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler: the route mux wrapped in the
// tracing/access-log middleware.
func (s *Server) Handler() http.Handler { return s.root }

// Shutdown drains the daemon: /readyz flips to 503 immediately (load
// balancers stop routing before the drain deadline), new jobs are rejected
// with 503, queued and running jobs finish normally. When ctx expires
// first, every live job is canceled (it finishes through the normal
// budget-cancellation path) and Shutdown still waits for the workers before
// returning ctx's error. The journal is closed once the workers are done —
// every drained job has its finish record on disk.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	s.journal.Close()
	return err
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 from the instant Shutdown begins, so load
// balancers drain routes before the deadline; 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// cacheKey is the content address of a request: the kind, the canonical
// spec hash, and only the options that shape the result. Budget bounds,
// timeouts, worker counts and the fallback switch are excluded — parallel
// runs are bit-identical by construction, and only complete (non-degraded)
// results are ever stored, so any budget that produces a cacheable result
// produces this one. propsHash addresses the canonical property text, and
// the engine choice is keyed because the engines find different (equally
// valid) counterexample traces.
func cacheKey(kind, specHash, implHash, propsHash string, o ReqOptions) string {
	style := o.Style
	if style == "" {
		style = "complex"
	}
	engine := o.PropEngine
	if engine == "" {
		engine = "auto"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|v1|%s|%s|style=%s|fanin=%d|verify=%t|props=%s|eng=%s",
		kind, specHash, implHash, style, o.MaxFanIn, !o.SkipVerify, propsHash, engine)
	return hex.EncodeToString(h.Sum(nil))
}

// propsHash is the content address of a property list: its canonical
// rendering, so formatting-equivalent property files share cache entries.
func propsHash(props []prop.Property) string {
	if len(props) == 0 {
		return ""
	}
	sum := sha256.Sum256([]byte(prop.Print(props)))
	return hex.EncodeToString(sum[:])
}

// implHash is the content address of a parsed .eqn netlist: its canonical
// equations rendering.
func implHash(nl *logic.Netlist) string {
	sum := sha256.Sum256([]byte(nl.Equations()))
	return hex.EncodeToString(sum[:])
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // the response is already committed; nothing to do on error
}

func writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	writeJSON(w, code, &Response{
		Status: "failed", TraceID: traceID(r.Context()),
		Error: fmt.Sprintf(format, args...),
	})
}

// writeOverload is the admission-layer rejection: 503 with a Retry-After
// header (whole seconds, rounded up) and the same hint in milliseconds in
// the body, for clients that want the jittered value unquantized.
func writeOverload(w http.ResponseWriter, r *http.Request, ov *errOverload) {
	secs := int64((ov.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, http.StatusServiceUnavailable, &Response{
		Status: "failed", TraceID: traceID(r.Context()),
		Error: ov.msg, ErrorKind: "overload",
		RetryAfterMS: ov.retryAfter.Milliseconds(),
	})
}

// decode parses and validates the request body far enough to reject
// malformed input with 400 before any job is created.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, kind string) (*Request, *stg.STG, *logic.Netlist, []prop.Property, bool) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad request: %v", err)
		return nil, nil, nil, nil, false
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeError(w, r, http.StatusBadRequest, "bad request: empty spec")
		return nil, nil, nil, nil, false
	}
	if _, err := req.Options.style(); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad request: %v", err)
		return nil, nil, nil, nil, false
	}
	if _, err := req.Options.propEngine(); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad request: %v", err)
		return nil, nil, nil, nil, false
	}
	g, err := stg.ParseG(strings.NewReader(req.Spec))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad spec: %v", err)
		return nil, nil, nil, nil, false
	}
	var nl *logic.Netlist
	var props []prop.Property
	if kind == "verify" {
		if strings.TrimSpace(req.Impl) == "" && strings.TrimSpace(req.Properties) == "" {
			writeError(w, r, http.StatusBadRequest, "bad request: verify needs an impl (.eqn) or a properties field")
			return nil, nil, nil, nil, false
		}
		if strings.TrimSpace(req.Impl) != "" {
			if nl, err = logic.ParseEquations(strings.NewReader(req.Impl)); err != nil {
				writeError(w, r, http.StatusBadRequest, "bad impl: %v", err)
				return nil, nil, nil, nil, false
			}
		}
		if strings.TrimSpace(req.Properties) != "" {
			if props, err = prop.Parse(req.Properties); err != nil {
				writeError(w, r, http.StatusBadRequest, "bad properties: %v", err)
				return nil, nil, nil, nil, false
			}
			if len(props) == 0 {
				writeError(w, r, http.StatusBadRequest, "bad properties: no properties declared")
				return nil, nil, nil, nil, false
			}
			if err := prop.Bind(g, props); err != nil {
				writeError(w, r, http.StatusBadRequest, "bad properties: %v", err)
				return nil, nil, nil, nil, false
			}
		}
	}
	return &req, g, nl, props, true
}

// handleParse answers inline — parsing is too cheap to queue.
func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	_, g, _, _, ok := s.decode(w, r, "parse")
	if !ok {
		return
	}
	hash, err := g.CanonicalHash()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	var canon strings.Builder
	if err := g.WriteG(&canon); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	counts := map[string]int{}
	for _, sig := range g.Signals {
		counts[strings.ToLower(sig.Kind.String())]++
	}
	raw, err := json.Marshal(&ParseResult{
		Kind:        "parse",
		Name:        g.Name(),
		Hash:        hash,
		Signals:     counts,
		Transitions: len(g.Net.Transitions),
		Places:      len(g.Net.Places),
		Canonical:   canon.String(),
	})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &Response{
		Status: "done", Result: raw, TraceID: traceID(r.Context()),
	})
}

// handleRun is the shared front end of /v1/analyze, /v1/synthesize and
// /v1/verify: decode, cache lookup, singleflight attach, enqueue, then
// either block (sync) or hand back a job handle (async).
func (s *Server) handleRun(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		s.reg.Counter("serve.requests_" + kind).Inc()
		req, g, nl, props, ok := s.decode(w, r, kind)
		if !ok {
			return
		}
		specHash, err := g.CanonicalHash()
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad spec: %v", err)
			return
		}
		ih := ""
		if nl != nil {
			ih = implHash(nl)
		}
		key := cacheKey(kind, specHash, ih, propsHash(props), req.Options)
		if data, ok := s.cache.get(key); ok {
			s.cacheHits.Inc()
			writeJSON(w, http.StatusOK, &Response{
				Status: "done", Cached: true, Key: key, Result: data,
				TraceID: traceID(r.Context()),
			})
			return
		}
		// Disk hits survive restarts: promote into the memory tier and
		// replay the stored bytes exactly like a warm hit.
		if data, ok := s.disk.get(key); ok {
			s.cache.put(key, data)
			writeJSON(w, http.StatusOK, &Response{
				Status: "done", Cached: true, Key: key, Result: data,
				TraceID: traceID(r.Context()),
			})
			return
		}
		s.cacheMisses.Inc()

		async := len(g.Net.Transitions) > s.cfg.AsyncThreshold
		if req.Async != nil {
			async = *req.Async
		}

		j, shared, err := s.admit(kind, key, traceID(r.Context()), req, g, nl, props)
		if err != nil {
			var ov *errOverload
			if errors.As(err, &ov) {
				writeOverload(w, r, ov)
				return
			}
			writeError(w, r, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if shared {
			s.sharedFlights.Inc()
		}
		if async {
			writeJSON(w, http.StatusAccepted, j.snapshot())
			return
		}
		select {
		case <-j.done:
			resp := j.snapshot()
			writeJSON(w, resp.code, resp)
		case <-r.Context().Done():
			// Client gone; the job keeps running (other requests may share
			// it, and its result is still cacheable).
		}
	}
}

// admit finds a running job with the same content address or creates and
// enqueues a new one. It fails when the daemon is draining, the shed gate
// is over its in-flight cost bound, or the queue is full. The journal
// accept record is written — and fsync'd — before the job enters the queue,
// so no acknowledged job can be lost to a crash. A singleflight-attached
// request shares the existing job, including its trace id — the trace
// belongs to the request that created the job.
func (s *Server) admit(kind, key, trace string, req *Request, g *stg.STG, nl *logic.Netlist, props []prop.Property) (*job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("serve: shutting down")
	}
	if f := s.flight[key]; f != nil {
		return f, true, nil
	}
	// Only admit (serialized by s.mu) ever fills the queue, so a free slot
	// observed here stays free until the send below.
	if len(s.queue) == cap(s.queue) {
		return nil, false, s.gate.overload("serve: queue full (%d jobs)", s.cfg.Queue)
	}
	cost := jobCost(req.Options)
	if !s.gate.admit(cost) {
		return nil, false, s.gate.overload(
			"serve: overloaded (in-flight cost %d over %d)", s.gate.inflight.Load(), s.gate.limit)
	}
	s.gate.settle()
	s.seq++
	var ctx context.Context
	var cancel context.CancelFunc
	if t := s.jobTimeout(req.Options); t > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), t)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	if trace == "" {
		trace = mintTraceID() // admitted outside the middleware (tests)
	}
	j := &job{
		id:     fmt.Sprintf("j%d", s.seq),
		kind:   kind,
		key:    key,
		cost:   cost,
		trace:  trace,
		req:    req,
		g:      g,
		nl:     nl,
		props:  props,
		events: newBroadcaster(s.sseDropped.Add),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: "queued",
	}
	if err := s.journalAccept(j); err != nil {
		// Durability is the contract when a data dir is configured: refuse
		// work the journal cannot record rather than accept it silently
		// volatile.
		cancel()
		s.gate.release(cost)
		return nil, false, fmt.Errorf("serve: journal unavailable: %w", err)
	}
	s.queue <- j // cannot block: slot reserved above under s.mu
	s.queueDepth.Set(s.depth.Add(1))
	s.jobs[j.id] = j
	s.flight[key] = j
	s.order = append(s.order, j.id)
	s.evictHistoryLocked()
	return j, false, nil
}

// journalAccept renders the job's accept record — the canonical spec plus
// everything needed to re-run it on a fresh process — and appends it.
func (s *Server) journalAccept(j *job) error {
	if s.journal == nil {
		return nil
	}
	var spec strings.Builder
	if err := j.g.WriteG(&spec); err != nil {
		return err
	}
	opts := j.req.Options
	return s.journal.append(&journalRecord{
		T:     "accept",
		Job:   j.id,
		Kind:  j.kind,
		Key:   j.key,
		Trace: j.trace,
		Spec:  spec.String(),
		Impl:  j.req.Impl,
		Props: j.req.Properties,
		Opts:  &opts,
	})
}

// jobTimeout combines the per-request timeout with the server ceiling.
func (s *Server) jobTimeout(o ReqOptions) time.Duration {
	t := time.Duration(o.TimeoutMS) * time.Millisecond
	if s.cfg.JobTimeout > 0 && (t == 0 || s.cfg.JobTimeout < t) {
		t = s.cfg.JobTimeout
	}
	return t
}

// jobHistory bounds how many jobs stay pollable: past it the oldest
// finished ones are dropped.
const jobHistory = 1024

// evictHistoryLocked drops the oldest finished jobs beyond jobHistory. Live
// jobs are never dropped.
func (s *Server) evictHistoryLocked() {
	finished := func(j *job) bool {
		select {
		case <-j.done:
			return true
		default:
			return false
		}
	}
	for len(s.order) > jobHistory {
		idx := -1
		for i, id := range s.order {
			if j := s.jobs[id]; j == nil || finished(j) {
				delete(s.jobs, id)
				idx = i
				break
			}
		}
		if idx < 0 {
			return // everything is still live; the queue bound caps this
		}
		s.order = append(s.order[:idx], s.order[idx+1:]...)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	resp := j.snapshot()
	code := http.StatusOK
	if resp.Status == "failed" || resp.Status == "canceled" {
		code = resp.code
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// Journal the cancellation before acting on it: if the process dies
	// before the job finishes unwinding, replay must not resurrect a job
	// the client was told is being canceled.
	if err := s.journal.append(&journalRecord{T: "cancel", Job: j.id}); err != nil {
		s.jobLog(j, slog.LevelError, "journal cancel failed", err)
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) syncCacheGauges() {
	entries, bytes, evictions := s.cache.stats()
	s.cacheEntries.Set(int64(entries))
	s.cacheBytes.Set(bytes)
	if d := evictions - s.cacheEvictions.Value(); d > 0 {
		s.cacheEvictions.Add(d)
	}
	if s.disk != nil {
		dEntries, dBytes := s.disk.stats()
		s.diskEntries.Set(int64(dEntries))
		s.diskBytes.Set(dBytes)
	}
}
