// Command bench is the synthesis benchmark: one workload per process, every
// metric printed by name and unit, and a non-zero exit when any op's outcome
// differs from the expected one. See README.md.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh -workload csc-search -seed 1 -seconds 30 -trace 0
//	bash bench/run.sh -workload concurrent-sg -trace 1 -trace-out trace.json
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	root     string // repository root: testdata/ lives here
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	setups   int // set-ups per run; setup_s is their median
}

// batchWorkload is a batch workload's timed specs, cheapest first, and the
// spec of the untimed warm-up op each set-up ends with. The warm-up op is a
// mid-sized spec, so set-up time is not dominated by timer jitter.
type batchWorkload struct {
	specs  []string
	warmup string
}

var batchWorkloads = map[string]batchWorkload{
	"csc-search": {
		specs:  []string{"vme-read", "cscring-2", "vme-read-write", "cscring-3", "cscring-4"},
		warmup: "cscring-2",
	},
	"concurrent-sg": {
		specs:  []string{"fork-join", "pipeline-stage", "muller-5", "muller-6", "muller-8"},
		warmup: "muller-5",
	},
}

// serveWarmup is the base spec of the serve-mix warm-up request, sent as a
// variant no scheduled request uses.
const serveWarmup = "vme-read"

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{root: ".", setups: 5}
	var seconds, trace int
	var recordPath string
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "csc-search, concurrent-sg or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op order and the request schedule")
	fs.IntVar(&seconds, "seconds", 30, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace_event JSON to this file")
	fs.StringVar(&recordPath, "record", "", "append the result as one JSON line to this file")
	fs.BoolVar(&compare, "compare", false, "compare two record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		ok, err := compareRecords(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := newRun(cfg, stderr)
	if err := runWorkload(r); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		r.set("peak_rss_mb", peakRSSMB(), "getrusage maxrss at exit")
	}
	res, err := r.result(defs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if recordPath != "" {
		if err := appendRecord(recordPath, record{Workload: cfg.workload, Seed: cfg.seed, Trace: trace, result: *res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs the configured workload on its full spec set.
func runWorkload(r *run) error {
	if r.cfg.workload == "serve-mix" {
		return runServeMix(r, serveCatalog, serveWarmup)
	}
	w, ok := batchWorkloads[r.cfg.workload]
	if !ok {
		return fmt.Errorf("bench: unknown workload %q (want csc-search, concurrent-sg or serve-mix)", r.cfg.workload)
	}
	return runBatch(r, w.specs, w.warmup)
}
