package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stg"
)

// The tests run from bench/, one level below the repository root.
const testRoot = ".."

func TestRoundOrdersDependOnlyOnSeed(t *testing.T) {
	draw := func(seed int64) [][]int {
		next := roundOrders(seed, 5)
		var out [][]int
		for i := 0; i < 20; i++ {
			out = append(out, next())
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Fatal("the same seed gave different op orders")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Fatal("different seeds gave the same op orders")
	}
}

func TestPlanRequestsDependsOnlyOnSeed(t *testing.T) {
	const n = 1200
	window := 30 * time.Second
	v1, a := planRequests(serveCatalog, n, window, 3)
	v2, b := planRequests(serveCatalog, n, window, 3)
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	_, c := planRequests(serveCatalog, n, window, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestPlanRequestsShape(t *testing.T) {
	const n = 1200
	window := 30 * time.Second
	variants, reqs := planRequests(serveCatalog, n, window, 1)
	if len(reqs) != n {
		t.Fatalf("%d requests, want %d", len(reqs), n)
	}
	seen := map[[2]int]int{}
	perSpec := make([]int, len(serveCatalog))
	for i, q := range reqs {
		if q.at < 0 || q.at >= window || (i > 0 && q.at < reqs[i-1].at) {
			t.Fatalf("request %d due at %v: not ascending within the window", i, q.at)
		}
		if q.variant < 0 || q.variant >= variants[q.spec] {
			t.Fatalf("request %d: variant %d of %d", i, q.variant, variants[q.spec])
		}
		seen[[2]int{q.spec, q.variant}]++
		perSpec[q.spec]++
	}
	for i, s := range serveCatalog {
		for v := 0; v < variants[i]; v++ {
			if seen[[2]int{i, v}] == 0 {
				t.Errorf("%s variant %d is never requested", s.name, v)
			}
		}
		if want := s.share * n; float64(perSpec[i]) < want-1 || float64(perSpec[i]) > want+1 {
			t.Errorf("%s: %d requests, want %.0f", s.name, perSpec[i], want)
		}
	}
}

// TestMissShareDoesNotDependOnTheWindow: the first request of a cacheable
// variant is a miss, and so is every request of a spec that fails.
func TestMissShareDoesNotDependOnTheWindow(t *testing.T) {
	share := func(seconds int) float64 {
		n := serveRate * seconds
		variants, reqs := planRequests(serveCatalog, n, time.Duration(seconds)*time.Second, 1)
		misses := 0
		for i, s := range serveCatalog {
			if expected[s.name] == outcomeOK {
				misses += variants[i]
			}
		}
		for _, q := range reqs {
			if expected[serveCatalog[q.spec].name] != outcomeOK {
				misses++
			}
		}
		return float64(misses) / float64(n)
	}
	base := share(30)
	if base < 0.2 || base > 0.3 {
		t.Errorf("miss share %.3f at 30 s, want 0.2-0.3", base)
	}
	for _, seconds := range []int{10, 60, 120} {
		if got := share(seconds); got < base-0.01 || got > base+0.01 {
			t.Errorf("miss share %.3f at %d s, %.3f at 30 s", got, seconds, base)
		}
	}
}

func TestLayerTimesSplitsOps(t *testing.T) {
	spans := []obs.SpanSnapshot{
		{ID: 0, Parent: -1, Name: "flow:parse", DurUS: 100},
		{ID: 1, Parent: -1, Name: "flow:synthesize", DurUS: 5000},
		{ID: 2, Parent: 1, Name: "phase:sg", DurUS: 1000},
		{ID: 3, Parent: 2, Name: "engine:reach", DurUS: 900},
		{ID: 4, Parent: 1, Name: "phase:encoding", DurUS: 3000},
		{ID: 5, Parent: -1, Name: "flow:parse", DurUS: 200},
		{ID: 6, Parent: -1, Name: "flow:synthesize", DurUS: 700},
		{ID: 7, Parent: 6, Name: "phase:sg", DurUS: 500},
	}
	got := layerTimes(spans)
	want := []map[string]float64{
		{"flow:parse": 0.1, "flow:synthesize": 5, "phase:sg": 1, "phase:encoding": 3},
		{"flow:parse": 0.2, "flow:synthesize": 0.7, "phase:sg": 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layerTimes = %v, want %v", got, want)
	}
	if check := layerMS(&layerOp{layerMS: got[0]}, ""); check != 1 {
		t.Errorf("ts.check = %v ms, want 1 (the flow outside its phases)", check)
	}
}

func TestApportion(t *testing.T) {
	for _, tc := range []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1, 1}, []int{4, 3, 3}},
		{7, []float64{0.5, 0.25, 0.25}, []int{3, 2, 2}},
		{0, []float64{1, 2}, []int{0, 0}},
		{5, []float64{1, 1.0 / 2, 1.0 / 3}, []int{3, 1, 1}},
	} {
		got := apportion(tc.total, tc.weights)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("apportion(%d, %v) = %v, want %v", tc.total, tc.weights, got, tc.want)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n            int
		p            float64
		value, pctle float64
	}{
		{1000, 0.99, 990, 0.99},  // exactly 10 samples beyond p99
		{1200, 0.99, 1188, 0.99}, // 12 beyond
		{999, 0.99, 989, 989.0 / 999},
		{100, 0.99, 90, 0.90}, // lowered to the highest percentile with 10 beyond
		{15, 0.99, 8, 8.0 / 15},
		{1, 0.99, 1, 1},
	} {
		v, p := tail(seq(tc.n), tc.p)
		if v != tc.value || p != tc.pctle {
			t.Errorf("tail(n=%d, p=%v) = %v at p%v, want %v at p%v", tc.n, tc.p, v, p, tc.value, tc.pctle)
		}
	}
}

func TestMedianGeomeanQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 100}); got < 9.999999 || got > 10.000001 {
		t.Errorf("geomean(1, 100) = %v", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.999999 || got > 4.000001 {
		t.Errorf("geomean(2, 8) = %v", got)
	}
	// Reference values: Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
	} {
		q1, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestClassify(t *testing.T) {
	for msg, want := range map[string]outcome{
		"core: state encoding: encoding: CSC not solved within 3 signal insertions": outcomeCSCUnsolved,
		"core: specification is not persistent (arbitration needed): state 1":       outcomeNotPersistent,
		"core: specification deadlocks":                                             "error: core: specification deadlocks",
	} {
		if got := classifyMessage(msg); got != want {
			t.Errorf("classify(%q) = %q, want %q", msg, got, want)
		}
	}
}

func TestEveryWorkloadSpecHasAnExpectedOutcome(t *testing.T) {
	var names []string
	for _, w := range batchWorkloads {
		names = append(names, w.warmup)
		names = append(names, w.specs...)
	}
	names = append(names, serveWarmup)
	for _, s := range serveCatalog {
		names = append(names, s.name)
	}
	if _, err := loadSpecs(testRoot, names); err != nil {
		t.Fatal(err)
	}
}

func TestRenameSignalsKeepsTheNet(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(testRoot, "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := stg.ParseG(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		text, err := renameSignals(string(data), "v3_")
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		g, err := stg.ParseG(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s renamed: %v\n%s", f, err, text)
		}
		if len(g.Signals) != len(orig.Signals) || len(g.Net.Transitions) != len(orig.Net.Transitions) || len(g.Net.Places) != len(orig.Net.Places) {
			t.Errorf("%s: renaming changed the net size", f)
		}
		for i, s := range g.Signals {
			if s.Name != "v3_"+orig.Signals[i].Name || s.Kind != orig.Signals[i].Kind {
				t.Errorf("%s: signal %d is %v, want v3_%s", f, i, s, orig.Signals[i].Name)
			}
		}
		for i, tr := range g.Net.Transitions {
			want := orig.Net.Transitions[i].Name
			if orig.Labels[i].Sig >= 0 {
				want = "v3_" + want
			}
			if tr.Name != want {
				t.Errorf("%s: transition %d is %s, want %s", f, i, tr.Name, want)
			}
		}
		h1, _ := orig.CanonicalHash()
		h2, _ := g.CanonicalHash()
		if h1 == h2 {
			t.Errorf("%s: the variant has the original's cache key", f)
		}
	}
}

func TestRenamedVariantHasTheSameCircuitCost(t *testing.T) {
	specs, err := loadSpecs(testRoot, []string{"vme-read"})
	if err != nil {
		t.Fatal(err)
	}
	text, err := renameSignals(specs[0].text, "v1_")
	if err != nil {
		t.Fatal(err)
	}
	a, b := synthOp(specs[0].text, 1, nil), synthOp(text, 1, nil)
	if a.outcome != outcomeOK || b.outcome != outcomeOK {
		t.Fatalf("outcomes %q, %q", a.outcome, b.outcome)
	}
	if a.netlist.LiteralCount() != b.netlist.LiteralCount() || len(a.netlist.Signals) != len(b.netlist.Signals) {
		t.Errorf("variant costs %d literals / %d signals, original %d / %d",
			b.netlist.LiteralCount(), len(b.netlist.Signals), a.netlist.LiteralCount(), len(a.netlist.Signals))
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric tables to BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	def, err := readBenchDef(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark %v", layer, perLayer)
	}
	var workloads []string
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}
	want := []string{"csc-search", "concurrent-sg", "serve-mix"}
	if !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}
}

// TestSmoke runs every workload's runner on its cheapest spec for one
// second, untraced and traced, and checks that it emits exactly the metric
// names and units of BENCHMARK.json, with no failure.
func TestSmoke(t *testing.T) {
	def, err := readBenchDef(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		want[true][m.Name] = m.Unit
	}
	cheapest := map[string]func(r *run) error{
		"csc-search":    func(r *run) error { return runBatch(r, []string{"vme-read"}, "vme-read") },
		"concurrent-sg": func(r *run) error { return runBatch(r, []string{"fork-join"}, "fork-join") },
		"serve-mix": func(r *run) error {
			return runServeMix(r, []serveSpec{serveCatalog[0], serveCatalog[len(serveCatalog)-1]}, "handshake")
		},
	}
	for _, w := range def.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{root: testRoot, workload: w.Name, seed: 1, window: time.Second, trace: traced, setups: 1}
			if traced {
				cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			var log bytes.Buffer
			r := newRun(cfg, &log)
			if err := cheapest[w.Name](r); err != nil {
				t.Fatalf("%s traced=%t: %v\n%s", w.Name, traced, err, log.String())
			}
			defs := perLayer
			if !traced {
				defs = endToEnd
				r.set("peak_rss_mb", peakRSSMB(), "")
			}
			res, err := r.result(defs)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s", w.Name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%t: metrics %v, want %v", w.Name, traced, sortedKeys(got), sortedKeys(want[traced]))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateTraceJSON(data); err != nil {
				t.Errorf("%s: trace file: %v", w.Name, err)
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestCompareFlagsOnlyDifferencesBeyondTheBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var b bytes.Buffer
		for i, v := range values {
			line, err := json.Marshal(record{Workload: "csc-search", Seed: int64(i), result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"specs_per_s": {Value: v, Unit: "1/s"}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	def := filepath.Join(testRoot, "BENCHMARK.json")
	a := write("a.jsonl", 10, 10.1, 9.9, 10, 10.05)
	same := write("same.jsonl", 10.02, 9.95, 10.1, 10, 9.98)
	far := write("far.jsonl", 14, 14.1, 13.9, 14, 14.05)
	var out bytes.Buffer
	if ok, err := compareRecords(&out, def, a, same); err != nil || !ok {
		t.Errorf("same code flagged (ok=%t err=%v):\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareRecords(&out, def, a, far); err != nil || ok || !strings.Contains(out.String(), "DIFF") {
		t.Errorf("a 40%% difference was not flagged (ok=%t err=%v):\n%s", ok, err, out.String())
	}
}
