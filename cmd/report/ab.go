package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// A/B mode: `report -ab PARENT.txt CHANGE.txt` reads the `go test -bench
// -benchmem` output of interleaved runs of two builds on one host (written
// by scripts/bench.sh -ab) and prints, for every row in both, each side's
// range of ns/op, B/op and allocs/op over its runs. A row whose ns/op
// ranges do not overlap is flagged faster or slower; timing stays a
// judgement call. The exactMetrics have no noise, so a row that reports
// other values of one of them on the two sides fails the comparison.

// exactMetrics are the deterministic counts a row may report: the states
// of an exploration and the CSC search's account (BenchmarkSolveCSC).
var exactMetrics = []string{"states", "candidates", "explored", "rebuilt"}

// runs holds one side's values per row and unit, rows in first-seen order.
type runs struct {
	rows   []string
	values map[string]map[string][]float64
}

// readRuns parses every benchmark line of the file at path, a run at procs
// GOMAXPROCS.
func readRuns(path string, procs int) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ab: %w", err)
	}
	defer f.Close()
	results, _, err := parseBenchOutput(f, procs)
	if err != nil {
		return nil, fmt.Errorf("ab: %s: %w", path, err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("ab: %s holds no benchmark lines", path)
	}
	r := &runs{values: map[string]map[string][]float64{}}
	for _, res := range results {
		units := r.values[res.Name]
		if units == nil {
			units = map[string][]float64{}
			r.values[res.Name] = units
			r.rows = append(r.rows, res.Name)
		}
		units["ns/op"] = append(units["ns/op"], res.NsPerOp)
		for unit, v := range res.Metrics {
			units[unit] = append(units[unit], v)
		}
	}
	return r, nil
}

// runAB prints the per-row comparison of the parent's and the change's runs
// and returns an error naming every row and exact metric whose values
// differ.
func runAB(w io.Writer, parentPath, changePath string, procs int) error {
	parent, err := readRuns(parentPath, procs)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath, procs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| Row | parent ns/op | change ns/op | parent B/op | change B/op | parent allocs/op | change allocs/op | ns/op ranges |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	var differ, onlyParent []string
	for _, row := range parent.rows {
		a, b := parent.values[row], change.values[row]
		if b == nil {
			onlyParent = append(onlyParent, row)
			continue
		}
		verdict := "overlap"
		switch {
		case maxOf(b["ns/op"]) < minOf(a["ns/op"]):
			verdict = "**faster**"
		case minOf(b["ns/op"]) > maxOf(a["ns/op"]):
			verdict = "**slower**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s |\n", row,
			span(a["ns/op"], fmtNs), span(b["ns/op"], fmtNs),
			span(a["B/op"], fmtBytes), span(b["B/op"], fmtBytes),
			span(a["allocs/op"], fmtCount), span(b["allocs/op"], fmtCount), verdict)
		// An exact metric must read one value over every run of both sides.
		for _, unit := range exactMetrics {
			if sa, sb := a[unit], b[unit]; (sa != nil || sb != nil) &&
				(minOf(sa) != maxOf(sb) || maxOf(sa) != minOf(sb)) {
				differ = append(differ, fmt.Sprintf("%s of %s (%s against %s)", unit, row, span(sa, fmtCount), span(sb, fmtCount)))
			}
		}
	}
	var onlyChange []string
	for _, row := range change.rows {
		if parent.values[row] == nil {
			onlyChange = append(onlyChange, row)
		}
	}
	if len(onlyParent) > 0 {
		fmt.Fprintf(w, "\nonly in the parent's runs: %s\n", strings.Join(onlyParent, ", "))
	}
	if len(onlyChange) > 0 {
		fmt.Fprintf(w, "only in the change's runs: %s\n", strings.Join(onlyChange, ", "))
	}
	if len(differ) > 0 {
		return fmt.Errorf("ab: counts differ between the parent and the change: %s", strings.Join(differ, "; "))
	}
	return nil
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}

// span renders the range of vs, one value when its ends format alike and
// "—" when there are none.
func span(vs []float64, format func(float64) string) string {
	if len(vs) == 0 {
		return "—"
	}
	lo, hi := format(minOf(vs)), format(maxOf(vs))
	if lo == hi {
		return lo
	}
	return lo + "–" + hi
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	}
	return fmt.Sprintf("%.0f ns", ns)
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", b/1e3)
	}
	return fmt.Sprintf("%.0f B", b)
}

func fmtCount(n float64) string { return fmt.Sprintf("%.0f", n) }
