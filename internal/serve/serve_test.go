package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func vmeSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/vme-read.g")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// bigSpec builds n independent output toggles: 2^n reachable states, so a
// job on it stays running long enough to cancel deterministically.
func bigSpec(n int) string {
	var b strings.Builder
	b.WriteString(".model big\n.outputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " s%d", i)
	}
	b.WriteString("\n.graph\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "s%d+ s%d-\ns%d- s%d+\n", i, i, i, i)
	}
	b.WriteString(".marking {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " <s%d-,s%d+>", i, i)
	}
	b.WriteString(" }\n.end\n")
	return b.String()
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, *serve.Response) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, &out
}

func getJSON(t *testing.T, url string) (int, *serve.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out
}

func doDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func metrics(t *testing.T, base string) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(data)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	// The server registry is span-free by design (Registry.Merge folds only
	// scalar instruments), so Validate — not ValidateHierarchy — applies.
	if err := snap.Validate(); err != nil {
		t.Fatalf("/metrics snapshot invalid: %v", err)
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("server registry grew %d spans; per-job spans must not accumulate", len(snap.Spans))
	}
	return snap
}

// pollJob polls GET /v1/jobs/{id} until the job leaves queued/running.
func pollJob(t *testing.T, base, id string) (int, *serve.Response) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, resp := getJSON(t, base+"/v1/jobs/"+id)
		if resp.Status != "queued" && resp.Status != "running" {
			return code, resp
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return 0, nil
}

type synthResult struct {
	Kind         string `json:"kind"`
	Hash         string `json:"hash"`
	States       int    `json:"states"`
	Equations    string `json:"equations"`
	Gates        int    `json:"gates"`
	Degraded     bool   `json:"degraded"`
	Verification *struct {
		OK bool `json:"ok"`
	} `json:"verification"`
}

func decodeSynth(t *testing.T, resp *serve.Response) *synthResult {
	t.Helper()
	var res synthResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	return &res
}

// TestSynthesizeSyncAndCacheHit is the core service round trip: a cold VME
// synthesize runs the engines once; the identical request replays the
// byte-identical result from the content-addressed cache without charging
// another engine run.
func TestSynthesizeSyncAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := map[string]any{"spec": vmeSpec(t)}

	code, cold := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusOK || cold.Status != "done" {
		t.Fatalf("cold: code %d status %q error %q", code, cold.Status, cold.Error)
	}
	if cold.Cached {
		t.Fatal("cold run reported cached")
	}
	res := decodeSynth(t, cold)
	if res.Equations == "" || res.Gates == 0 {
		t.Fatalf("no netlist in result: %+v", res)
	}
	if res.Verification == nil || !res.Verification.OK {
		t.Fatalf("verification missing or failed: %+v", res.Verification)
	}
	before := metrics(t, ts.URL)
	if got := before.Counters["serve.engine_runs"]; got != 1 {
		t.Fatalf("engine_runs after cold = %d, want 1", got)
	}
	// reach engine counters folded from the per-job registry prove the obs
	// plumbing reaches /metrics.
	if before.Counters["reach.states"] <= 0 {
		t.Fatalf("per-job engine counters not merged: %v", before.Counters)
	}

	code, warm := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusOK || warm.Status != "done" || !warm.Cached {
		t.Fatalf("warm: code %d status %q cached %v", code, warm.Status, warm.Cached)
	}
	if warm.Key != cold.Key {
		t.Fatalf("content address changed: %q vs %q", warm.Key, cold.Key)
	}
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Fatalf("cache replay not byte-identical:\n%s\nvs\n%s", warm.Result, cold.Result)
	}
	after := metrics(t, ts.URL)
	if got := after.Counters["serve.engine_runs"]; got != 1 {
		t.Fatalf("cache hit charged an engine run: %d", got)
	}
	if after.Counters["reach.states"] != before.Counters["reach.states"] {
		t.Fatal("cache hit advanced engine counters")
	}
	if after.Counters["serve.cache_hits"] != 1 || after.Counters["serve.cache_misses"] != 1 {
		t.Fatalf("cache counters: %v", after.Counters)
	}
}

// TestAsyncJobLifecycle drives the job-handle path: 202 with an id, polling
// to completion, and a result identical to what the sync path returns.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := map[string]any{"spec": vmeSpec(t), "async": true}
	code, acc := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusAccepted {
		t.Fatalf("async accept code = %d, want 202", code)
	}
	if acc.JobID == "" || (acc.Status != "queued" && acc.Status != "running") {
		t.Fatalf("bad handle: %+v", acc)
	}
	code, final := pollJob(t, ts.URL, acc.JobID)
	if code != http.StatusOK || final.Status != "done" {
		t.Fatalf("final: code %d status %q error %q", code, final.Status, final.Error)
	}
	if res := decodeSynth(t, final); res.Equations == "" {
		t.Fatal("async result has no equations")
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job code = %d, want 404", code)
	}
}

// TestJobHistoryBound: the daemon keeps the newest 1,024 jobs pollable.
// With the cache off every request runs a job, so after 1,030 of them the
// first six have been dropped and j7 through j1030 are still there.
func TestJobHistoryBound(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{CacheEntries: -1})
	body := map[string]any{"spec": vmeSpec(t)}
	for i := 1; i <= 1030; i++ {
		code, resp := postJSON(t, ts.URL+"/v1/analyze", body)
		if code != http.StatusOK || resp.JobID != fmt.Sprintf("j%d", i) {
			t.Fatalf("request %d: code %d, job %q, error %q", i, code, resp.JobID, resp.Error)
		}
	}
	for _, id := range []string{"j1", "j6"} {
		if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("%s: code %d, want 404", id, code)
		}
	}
	for _, id := range []string{"j7", "j1030"} {
		if code, resp := getJSON(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK || resp.Status != "done" {
			t.Fatalf("%s: code %d, status %q", id, code, resp.Status)
		}
	}
}

// TestBudgetExceeded: a sync run whose state budget trips fails with HTTP
// 422 and carries the partial degradation-ladder attempts.
func TestBudgetExceeded(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := map[string]any{"spec": vmeSpec(t), "options": map[string]any{"max_states": 4}}
	code, resp := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d, want 422 (resp %+v)", code, resp)
	}
	if resp.Status != "failed" || resp.ErrorKind != "budget" {
		t.Fatalf("status %q kind %q", resp.Status, resp.ErrorKind)
	}
	if len(resp.Attempts) == 0 || !strings.Contains(resp.Attempts[0], "explicit") {
		t.Fatalf("partial attempts missing: %v", resp.Attempts)
	}

	// With the fallback ladder the same budget yields a degraded-but-done
	// analysis — which must NOT enter the content-addressed cache.
	body["options"] = map[string]any{"max_states": 4, "fallback": true}
	code, resp = postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("fallback: code %d status %q error %q", code, resp.Status, resp.Error)
	}
	if res := decodeSynth(t, resp); !res.Degraded {
		t.Fatalf("expected degraded result: %s", resp.Result)
	}
	code, again := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusOK || again.Cached {
		t.Fatalf("degraded result was cached: code %d cached %v", code, again.Cached)
	}
}

// TestCancellation covers both cancel paths: a queued job canceled before a
// worker picks it up, and a running job canceled mid-analysis through its
// budget context.
func TestCancellation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, Queue: 8})

	// Occupy the single worker, then cancel a job that is still queued.
	code, blocker := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"spec": bigSpec(20), "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("blocker accept = %d", code)
	}
	code, queued := postJSON(t, ts.URL+"/v1/synthesize",
		map[string]any{"spec": vmeSpec(t), "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("queued accept = %d", code)
	}
	if code := doDelete(t, ts.URL+"/v1/jobs/"+queued.JobID); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	// Cancel the running blocker mid-exploration (2^20 states is far more
	// than it can reach before the DELETE lands).
	if code := doDelete(t, ts.URL+"/v1/jobs/"+blocker.JobID); code != http.StatusOK {
		t.Fatalf("cancel blocker = %d", code)
	}
	for _, id := range []string{queued.JobID, blocker.JobID} {
		code, final := pollJob(t, ts.URL, id)
		if final.Status != "canceled" || code != http.StatusConflict {
			t.Fatalf("job %s: status %q code %d (error %q)", id, final.Status, code, final.Error)
		}
	}
	snap := metrics(t, ts.URL)
	if snap.Counters["serve.jobs_canceled"] != 2 {
		t.Fatalf("jobs_canceled = %d, want 2", snap.Counters["serve.jobs_canceled"])
	}
}

// TestSingleflight: concurrent identical requests share one engine run and
// one job id.
func TestSingleflight(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, Queue: 8})

	// Hold the only worker so the shared job stays queued while both
	// requests attach to it.
	code, blocker := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"spec": bigSpec(20), "async": true})
	if code != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}
	body := map[string]any{"spec": vmeSpec(t), "async": true}
	code, first := postJSON(t, ts.URL+"/v1/synthesize", body)
	if code != http.StatusAccepted {
		t.Fatalf("first = %d", code)
	}
	var wg sync.WaitGroup
	var second *serve.Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, second = postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": vmeSpec(t)})
	}()
	time.Sleep(100 * time.Millisecond) // let the sync request attach
	doDelete(t, ts.URL+"/v1/jobs/"+blocker.JobID)
	wg.Wait()
	if second.Status != "done" || second.JobID != first.JobID {
		t.Fatalf("concurrent request did not share the flight: first %q second %q (%s)",
			first.JobID, second.JobID, second.Status)
	}
	snap := metrics(t, ts.URL)
	if snap.Counters["serve.singleflight_shared"] < 1 {
		t.Fatalf("singleflight never shared: %v", snap.Counters)
	}
	// blocker (1 run, canceled mid-flight) + shared vme job (1 run).
	if got := snap.Counters["serve.engine_runs"]; got != 2 {
		t.Fatalf("engine_runs = %d, want 2 (one shared run)", got)
	}
}

// TestParseAnalyzeVerify covers the remaining endpoints end to end:
// parse structure, analyze properties, and verify of a synthesized netlist
// against its own spec.
func TestParseAnalyzeVerify(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	spec := vmeSpec(t)

	code, parsed := postJSON(t, ts.URL+"/v1/parse", map[string]any{"spec": spec})
	if code != http.StatusOK || parsed.Status != "done" {
		t.Fatalf("parse: %d %q", code, parsed.Status)
	}
	var pres struct {
		Hash        string `json:"hash"`
		Transitions int    `json:"transitions"`
		Canonical   string `json:"canonical"`
	}
	if err := json.Unmarshal(parsed.Result, &pres); err != nil {
		t.Fatal(err)
	}
	if len(pres.Hash) != 64 || pres.Transitions == 0 || pres.Canonical == "" {
		t.Fatalf("parse result: %+v", pres)
	}

	code, analyzed := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": spec})
	if code != http.StatusOK || analyzed.Status != "done" {
		t.Fatalf("analyze: %d %q %q", code, analyzed.Status, analyzed.Error)
	}
	var ares struct {
		States     int `json:"states"`
		Properties struct {
			Consistent bool `json:"consistent"`
			CSC        bool `json:"csc"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(analyzed.Result, &ares); err != nil {
		t.Fatal(err)
	}
	if ares.States == 0 || !ares.Properties.Consistent {
		t.Fatalf("analyze result: %+v", ares)
	}

	code, synth := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": spec})
	if code != http.StatusOK {
		t.Fatalf("synthesize: %d", code)
	}
	eqs := decodeSynth(t, synth).Equations
	code, verified := postJSON(t, ts.URL+"/v1/verify",
		map[string]any{"spec": spec, "impl": eqs})
	if code != http.StatusOK || verified.Status != "done" {
		t.Fatalf("verify: %d %q %q", code, verified.Status, verified.Error)
	}
	var vres struct {
		Verification struct {
			OK     bool `json:"ok"`
			States int  `json:"states"`
		} `json:"verification"`
	}
	if err := json.Unmarshal(verified.Result, &vres); err != nil {
		t.Fatal(err)
	}
	if !vres.Verification.OK || vres.Verification.States == 0 {
		t.Fatalf("verify result: %+v", vres)
	}

	// Bad inputs are 400s, not jobs.
	if code, _ := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": "not a spec"}); code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/verify", map[string]any{"spec": spec}); code != http.StatusBadRequest {
		t.Fatalf("verify without impl = %d, want 400", code)
	}
	// A repeated declaration in the impl is an input error, not a panic.
	code, dup := postJSON(t, ts.URL+"/v1/verify", map[string]any{"spec": spec, "impl": ".inputs K K\n"})
	if code != http.StatusBadRequest || !strings.HasPrefix(dup.Error, "bad impl: ") {
		t.Fatalf("impl declaring K twice = %d %q, want 400 bad impl", code, dup.Error)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/synthesize",
		map[string]any{"spec": spec, "options": map[string]any{"style": "bogus"}}); code != http.StatusBadRequest {
		t.Fatalf("bad style = %d, want 400", code)
	}
}

// TestQueueFullAndShutdown: a saturated queue rejects with 503; Shutdown
// drains queued jobs and then rejects new work with 503.
func TestQueueFullAndShutdown(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Workers: 1, Queue: 1})

	code, blocker := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"spec": bigSpec(20), "async": true})
	if code != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}
	// Worker busy; one slot in the queue, then 503. Distinct specs dodge
	// the singleflight table.
	code, queued := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": vmeSpec(t), "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("queued = %d", code)
	}
	code, full := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": bigSpec(3), "async": true})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("full queue = %d (%+v), want 503", code, full)
	}

	doDelete(t, ts.URL+"/v1/jobs/"+blocker.JobID)
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(t.Context()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown never drained")
	}
	// The queued job was drained, not dropped.
	if _, final := pollJob(t, ts.URL, queued.JobID); final.Status != "done" {
		t.Fatalf("queued job after drain: %q (%q)", final.Status, final.Error)
	}
	// An uncached request after shutdown must be rejected (a cached one may
	// still replay — the store stays valid while the HTTP server drains).
	code, _ = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": bigSpec(5)})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown admit = %d, want 503", code)
	}
}

// TestVerifyProperties covers the temporal-property path of /v1/verify:
// properties without an impl, verdicts with counterexample traces, caching
// under spec+properties+engine, and fail-fast validation.
func TestVerifyProperties(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	spec, err := os.ReadFile("../../testdata/arbiter-race.g")
	if err != nil {
		t.Fatal(err)
	}
	props := "prop mutex : AG !(g1 & g2)\nprop dlf : deadlock_free\n"

	code, resp := postJSON(t, ts.URL+"/v1/verify",
		map[string]any{"spec": string(spec), "properties": props})
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("verify: %d %q %q", code, resp.Status, resp.Error)
	}
	var vres struct {
		ImplHash   string `json:"impl_hash"`
		PropEngine string `json:"prop_engine"`
		PropStates string `json:"prop_states"`
		Properties []struct {
			Name     string `json:"name"`
			Formula  string `json:"formula"`
			Status   string `json:"status"`
			Trace    string `json:"trace"`
			Waveform string `json:"waveform"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(resp.Result, &vres); err != nil {
		t.Fatal(err)
	}
	if vres.ImplHash != "" {
		t.Errorf("impl_hash without impl: %q", vres.ImplHash)
	}
	if vres.PropEngine != "explicit" || vres.PropStates != "16" {
		t.Errorf("engine/states = %q/%q", vres.PropEngine, vres.PropStates)
	}
	if len(vres.Properties) != 2 {
		t.Fatalf("got %d verdicts", len(vres.Properties))
	}
	mutex, dlf := vres.Properties[0], vres.Properties[1]
	if mutex.Status != "VIOLATED" || mutex.Trace == "" || !strings.Contains(mutex.Waveform, "/") {
		t.Errorf("mutex verdict: %+v", mutex)
	}
	if mutex.Formula != "AG !(g1 & g2)" {
		t.Errorf("formula not canonical: %q", mutex.Formula)
	}
	if dlf.Status != "holds" || dlf.Trace != "" {
		t.Errorf("dlf verdict: %+v", dlf)
	}

	// Same request replays from the cache; a different engine is a
	// different content address (its counterexample may differ).
	code, again := postJSON(t, ts.URL+"/v1/verify",
		map[string]any{"spec": string(spec), "properties": props})
	if code != http.StatusOK || !again.Cached || again.Key != resp.Key {
		t.Fatalf("repeat not cached: %d cached=%v", code, again.Cached)
	}
	code, sym := postJSON(t, ts.URL+"/v1/verify", map[string]any{
		"spec": string(spec), "properties": props,
		"options": map[string]any{"prop_engine": "symbolic"},
	})
	if code != http.StatusOK || sym.Cached || sym.Key == resp.Key {
		t.Fatalf("symbolic run must be a distinct cache entry: %d cached=%v", code, sym.Cached)
	}

	// Validation failures are 400s, not jobs.
	for name, body := range map[string]map[string]any{
		"syntax":     {"spec": string(spec), "properties": "prop broken : ("},
		"bad signal": {"spec": string(spec), "properties": "prop p : nosuch"},
		"empty":      {"spec": string(spec), "properties": "# nothing\n"},
		"bad engine": {"spec": string(spec), "properties": props,
			"options": map[string]any{"prop_engine": "quantum"}},
	} {
		if code, _ := postJSON(t, ts.URL+"/v1/verify", body); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, code)
		}
	}
}

// TestVerifyPropertiesAndImpl runs both halves of /v1/verify in one
// request: netlist conformance and property checking.
func TestVerifyPropertiesAndImpl(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	spec := vmeSpec(t)
	code, synth := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": spec})
	if code != http.StatusOK {
		t.Fatalf("synthesize: %d", code)
	}
	code, resp := postJSON(t, ts.URL+"/v1/verify", map[string]any{
		"spec": spec, "impl": decodeSynth(t, synth).Equations,
		"properties": "prop dlf : deadlock_free\nprop csc : !csc_conflict\n",
	})
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("verify: %d %q %q", code, resp.Status, resp.Error)
	}
	var vres struct {
		ImplHash     string `json:"impl_hash"`
		Verification *struct {
			OK bool `json:"ok"`
		} `json:"verification"`
		Properties []struct {
			Status string `json:"status"`
		} `json:"properties"`
	}
	if err := json.Unmarshal(resp.Result, &vres); err != nil {
		t.Fatal(err)
	}
	if vres.ImplHash == "" || vres.Verification == nil || !vres.Verification.OK {
		t.Fatalf("verification half missing: %+v", vres)
	}
	// The raw VME read cycle is deadlock-free but has the paper's CSC
	// conflict (resolved during synthesis by a state signal), so the two
	// verdicts differ.
	if len(vres.Properties) != 2 || vres.Properties[0].Status != "holds" || vres.Properties[1].Status != "VIOLATED" {
		t.Fatalf("property half wrong: %+v", vres.Properties)
	}
}

// TestVerifyPropertiesBudget trips the job timeout mid-check and expects
// the typed budget taxonomy on the wire, not a hang or a panic.
func TestVerifyPropertiesBudget(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	code, resp := postJSON(t, ts.URL+"/v1/verify", map[string]any{
		"spec":       bigSpec(18),
		"properties": "prop dlf : deadlock_free\n",
		"options":    map[string]any{"max_states": 64},
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("budget trip = %d %q %q, want 422", code, resp.Status, resp.Error)
	}
	if resp.ErrorKind != "budget" {
		t.Fatalf("error_kind = %q, want budget", resp.ErrorKind)
	}
}

// TestHealthReadyFlip: /healthz stays 200 for the process lifetime while
// /readyz flips to 503 the instant Shutdown begins — before the drain
// finishes — so a load balancer stops routing while in-flight jobs complete.
func TestHealthReadyFlip(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, resp := getJSON(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s = %d %q, want 200", path, code, resp.Status)
		}
	}

	// A long job keeps the drain in progress while we probe readiness.
	code, blocker := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"spec": bigSpec(20), "async": true})
	if code != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(t.Context()) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := getJSON(t, ts.URL+"/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Liveness is about the process, not routability: still 200 mid-drain.
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}

	doDelete(t, ts.URL+"/v1/jobs/"+blocker.JobID)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown never drained")
	}
}

// TestAdmissionShedding: past the in-flight cost bound the daemon sheds with
// 503, an overload error kind, and Retry-After hints in both the header
// (whole seconds) and the body (milliseconds); capacity returns once the
// held job finishes.
func TestAdmissionShedding(t *testing.T) {
	// ShedCost of one default job: the first unbounded job fills the gate.
	srv, ts := newTestServer(t, serve.Config{Workers: 1, Queue: 8, ShedCost: 1 << 20})
	_ = srv
	code, blocker := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"spec": bigSpec(20), "async": true})
	if code != http.StatusAccepted {
		t.Fatalf("blocker = %d, want 202", code)
	}

	body, err := json.Marshal(map[string]any{"spec": vmeSpec(t), "async": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var shed serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || shed.ErrorKind != "overload" {
		t.Fatalf("shed = %d kind=%q (%s), want 503/overload", resp.StatusCode, shed.ErrorKind, shed.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want >= 1 second", ra)
	}
	if shed.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", shed.RetryAfterMS)
	}
	if snap := metrics(t, ts.URL); snap.Counters["serve.shed_total"] != 1 {
		t.Fatalf("shed_total = %d, want 1", snap.Counters["serve.shed_total"])
	}

	// Cancel the holder; its cost releases at finish and admission recovers.
	doDelete(t, ts.URL+"/v1/jobs/"+blocker.JobID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{"spec": vmeSpec(t), "async": true})
		if code == http.StatusAccepted {
			if _, final := pollJob(t, ts.URL, out.JobID); final.Status != "done" {
				t.Fatalf("post-shed job: %q (%s)", final.Status, final.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never recovered after release: %d (%s)", code, out.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetryCounterExported pins the /metrics contract for the durability
// counters. The crash-retry behaviour itself (panic → one retry with the
// fallback ladder forced) is exercised end-to-end in internal/faultinject,
// where engine panics can be injected.
func TestRetryCounterExported(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	snap := metrics(t, ts.URL)
	if _, ok := snap.Counters["serve.jobs_retried"]; !ok {
		t.Fatalf("serve.jobs_retried missing from /metrics: %v", snap.Counters)
	}
	for _, name := range []string{"serve.jobs_recovered", "serve.jobs_interrupted", "serve.shed_total"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
}
