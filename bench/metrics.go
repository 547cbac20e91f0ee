package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"syscall"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json exactly (TestMetricNamesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0): what a user of
// the flow or of the daemon sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"specs_per_s", "1/s"},
	{"flow_geomean_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"literals_total", "literals"},
	{"signals_total", "signals"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1), one group per layer
// the flow calls, in core.Synthesize's order, then the daemon and the
// runtime. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"stg.parse_ms", "ms"},
	{"reach.sg_ms", "ms"},
	{"reach.states", "states"},
	{"reach.states_per_s", "1/s"},
	{"reach.share", "ratio"},
	{"ts.check_ms", "ms"},
	{"ts.csc_conflicts", "pairs"},
	{"encoding.solve_ms", "ms"},
	{"encoding.share", "ratio"},
	{"encoding.candidates", "count"},
	{"encoding.memo_hit_ratio", "ratio"},
	{"encoding.candidates_per_s", "1/s"},
	{"encoding.state_signals", "signals"},
	{"encoding.alloc_mb", "MB"},
	{"logic.synth_ms", "ms"},
	{"logic.share", "ratio"},
	{"logic.minimizer_calls", "count"},
	{"logic.alloc_mb", "MB"},
	{"sim.verify_ms", "ms"},
	{"sim.share", "ratio"},
	{"sim.composed_states", "states"},
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.engine_runs", "count"},
	{"serve.shed_total", "count"},
	{"serve.generator_late_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.reference_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: a result with the run it came from.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// run accumulates one benchmark run: op counts, failures, reference kernel
// samples and metric values.
type run struct {
	cfg       config
	log       io.Writer // human-readable report (standard error)
	attempted int
	failed    int
	refs      []float64 // reference kernel times in ms (reference.go)
	values    map[string]float64
}

func newRun(cfg config, log io.Writer) *run {
	return &run{cfg: cfg, log: log, values: map[string]float64{}}
}

// fail counts one failed op or check and says why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
}

// set records a metric value with a note (sample count, percentile) for the
// human-readable report.
func (r *run) set(name string, v float64, note string) {
	r.values[name] = v
	fmt.Fprintf(r.log, "  %-28s %14.6g  %s\n", name, v, note)
}

// result assembles the metrics of defs; every one must have been set.
func (r *run) result(defs []metricDef) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// reported in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
