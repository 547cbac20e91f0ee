package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Regression mode: `report -regress OLD.json NEW.json` compares two
// benchmark trajectory records (the -bench-json output) and fails when any
// benchmark present in both slowed down by more than -threshold. Names in
// only one record are reported informationally — suites grow and shrink
// across PRs and that is not a perf regression.

// regression is one benchmark that crossed the threshold.
type regression struct {
	name     string
	oldNs    float64
	newNs    float64
	relative float64 // newNs/oldNs - 1
}

// loadBenchRecord reads one committed bench-json record.
func loadBenchRecord(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	var rec benchFile
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("regress: %s: record holds no benchmarks", path)
	}
	if err := checkUnique(rec.Benchmarks); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	return &rec, nil
}

// runRegress prints the per-benchmark comparison table and returns an error
// listing every regression past threshold (a fraction: 0.15 means a
// benchmark may be up to 15% slower before the gate trips). Benchmarks whose
// baseline is under minNs are compared informationally but never gated:
// below that floor a low-iteration run measures timer overhead, not the
// benchmark.
func runRegress(w io.Writer, oldPath, newPath string, threshold, minNs float64) error {
	if threshold <= 0 {
		return fmt.Errorf("regress: threshold must be positive, got %v", threshold)
	}
	oldRec, err := loadBenchRecord(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadBenchRecord(newPath)
	if err != nil {
		return err
	}
	oldNs := map[string]float64{}
	for _, b := range oldRec.Benchmarks {
		oldNs[b.Name] = b.NsPerOp
	}

	var regressed []regression
	var onlyNew []string
	seen := map[string]bool{}
	fmt.Fprintf(w, "| Benchmark | %s ns/op | %s ns/op | delta |\n", oldPath, newPath)
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, b := range newRec.Benchmarks {
		seen[b.Name] = true
		base, ok := oldNs[b.Name]
		if !ok {
			onlyNew = append(onlyNew, b.Name)
			continue
		}
		if base <= 0 || b.NsPerOp <= 0 {
			fmt.Fprintf(w, "| %s | %.0f | %.0f | (no timing) |\n", b.Name, base, b.NsPerOp)
			continue
		}
		rel := b.NsPerOp/base - 1
		mark := ""
		switch {
		case base < minNs:
			mark = " (below -min-ns, not gated)"
		case rel > threshold:
			mark = " **REGRESSION**"
			regressed = append(regressed, regression{b.Name, base, b.NsPerOp, rel})
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %+.1f%%%s |\n", b.Name, base, b.NsPerOp, rel*100, mark)
	}
	var onlyOld []string
	for name := range oldNs {
		if !seen[name] {
			onlyOld = append(onlyOld, name)
		}
	}
	sort.Strings(onlyOld)
	if len(onlyOld) > 0 {
		fmt.Fprintf(w, "\nonly in %s (informational): %s\n", oldPath, strings.Join(onlyOld, ", "))
	}
	if len(onlyNew) > 0 {
		fmt.Fprintf(w, "only in %s (informational): %s\n", newPath, strings.Join(onlyNew, ", "))
	}

	if len(regressed) == 0 {
		fmt.Fprintf(w, "\nregress: OK — no benchmark slowed past +%.0f%%\n", threshold*100)
		return nil
	}
	var names []string
	for _, r := range regressed {
		names = append(names, fmt.Sprintf("%s (%+.1f%%)", r.name, r.relative*100))
	}
	return fmt.Errorf("regress: %d benchmark(s) slowed past +%.0f%%: %s",
		len(regressed), threshold*100, strings.Join(names, ", "))
}
