package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the comparison and the tests read.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &def, nil
}

// readRecords reads a -record file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("bench: %s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compareRecords is the repeatability check. For every (workload, metric)
// it prints each set's sample count, median, quartiles and spread (the
// interquartile range over the median). An end-to-end metric is flagged
// when the medians differ by more than its bound or a set's spread exceeds
// it; a run that was not correct is flagged too. It reports whether nothing
// was flagged.
func compareRecords(w io.Writer, defPath, pathA, pathB string) (bool, error) {
	def, err := readBenchDef(defPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, set := range [][]record{a, b} {
		for _, rec := range set {
			if !rec.Correct || rec.Failed > 0 {
				fmt.Fprintf(w, "FLAG: %s seed %d trace %d: correct=%t failed=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Failed)
				ok = false
			}
		}
	}
	type metricRow struct {
		name, unit string
		bound      float64 // < 0: no bound (per-layer)
	}
	var rows []metricRow
	for _, m := range def.EndToEnd {
		rows = append(rows, metricRow{m.Name, m.Unit, m.Bound})
	}
	for _, m := range def.PerLayer {
		rows = append(rows, metricRow{m.Name, m.Unit, -1})
	}
	values := func(set []record, workload, metric string) []float64 {
		var out []float64
		for _, rec := range set {
			if m, ok := rec.Metrics[metric]; ok && rec.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tnA\tq1A\tmedianA\tq3A\tspreadA\tnB\tq1B\tmedianB\tq3B\tspreadB\tdiff\tbound\tflag\t")
	for _, wl := range def.Workloads {
		for _, m := range rows {
			va, vb := values(a, wl.Name, m.name), values(b, wl.Name, m.name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			medA, medB := median(va), median(vb)
			q1A, q3A := quartiles(va)
			q1B, q3B := quartiles(vb)
			diff := relDiff(medA, medB)
			flag, bound := "", "-"
			if m.bound >= 0 {
				bound = fmt.Sprintf("%.3g", m.bound)
				switch {
				case len(va) == 0 || len(vb) == 0:
					flag = "MISSING"
				case math.Abs(diff) > m.bound:
					flag = "DIFF"
				case m.name != "setup_s" && (spread(va) > m.bound || spread(vb) > m.bound):
					flag = "SPREAD"
				}
			}
			if flag != "" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%+.3f\t%s\t%s\t\n",
				wl.Name, m.name, m.unit, len(va), q1A, medA, q3A, spread(va), len(vb), q1B, medB, q3B, spread(vb), diff, bound, flag)
		}
	}
	return ok, tw.Flush()
}

// relDiff is (b-a)/a, 0 when both are 0, and ±Inf when only a is.
func relDiff(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}
