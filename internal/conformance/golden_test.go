package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/stg"
	"repro/internal/ts"
)

var update = flag.Bool("update", false, "rewrite testdata/synthesis.golden")

const synthesisGolden = "testdata/synthesis.golden"

// solutionWorkers are the worker counts the ranked CSC solutions must
// agree across: the choice is a function of the specification alone.
var solutionWorkers = []int{1, 2}

// synthesisModels is the golden corpus: every testdata specification plus
// the conflict-rich CSC rings and the Muller pipelines (which already have
// CSC, so their cost sits in logic derivation).
func synthesisModels(t *testing.T) []struct {
	name string
	g    *stg.STG
} {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	sort.Strings(files)
	var out []struct {
		name string
		g    *stg.STG
	}
	add := func(name string, g *stg.STG) {
		out = append(out, struct {
			name string
			g    *stg.STG
		}{name, g})
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(filepath.Base(path), g)
	}
	for _, k := range []int{2, 3} {
		add(fmt.Sprintf("gen/cscring-%d", k), gen.CSCRing(k))
	}
	for _, n := range []int{4, 5, 6} {
		add(fmt.Sprintf("gen/muller-%d", n), gen.MullerPipeline(n))
	}
	return out
}

// renderEquations renders the netlists of sg in all three architectures,
// or the error each synthesis reports. The architectures are synthesized
// concurrently: on the Muller pipelines each one is seconds of exact
// minimization.
func renderEquations(b *strings.Builder, sg *ts.SG) {
	styles := []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC}
	outs := make([]string, len(styles))
	var wg sync.WaitGroup
	for i, style := range styles {
		wg.Add(1)
		go func(i int, style logic.Style) {
			defer wg.Done()
			nl, err := logic.SynthesizeOpts(sg, style, logic.Options{})
			if err != nil {
				outs[i] = fmt.Sprintf("%s: error: %v\n", style, err)
				return
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "%s: %d literals\n", style, nl.LiteralCount())
			for _, line := range strings.Split(nl.Equations(), "\n") {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
			outs[i] = sb.String()
		}(i, style)
	}
	wg.Wait()
	for _, out := range outs {
		b.WriteString(out)
	}
}

// renderSolutions renders the ranked CSC solutions of g (descriptions and
// literal costs, in order) at one worker count, plus the cheapest one's
// state graph.
func renderSolutions(g *stg.STG, workers int) (string, *ts.SG) {
	sols, err := encoding.SolutionsOpts(g, 0, 5, encoding.Options{Workers: workers})
	if err != nil {
		return fmt.Sprintf("solutions: error: %v\n", err), nil
	}
	var b strings.Builder
	for i, s := range sols {
		fmt.Fprintf(&b, "solution %d: %d literals: %s\n", i+1, s.Literals, s.Description)
	}
	return b.String(), sols[0].SG
}

// renderSynthesis renders what the flow decides for g: the ranked CSC
// solutions, identical at every count in solutionWorkers, and the equations
// of the cheapest solution. When the input lacks CSC, the logic errors on
// the unencoded state graph — the CSC witness texts — are pinned too. An
// input with CSC runs no candidate search, so it is solved at one worker
// count only.
func renderSynthesis(t *testing.T, g *stg.STG) string {
	var b strings.Builder
	search := true
	base, err := reach.BuildSG(g, reach.Options{})
	if err == nil {
		base, err = ts.ContractDummies(base)
	}
	if err != nil {
		fmt.Fprintf(&b, "base: error: %v\n", err)
	} else if base.HasCSC() {
		search = false
	} else {
		fmt.Fprintf(&b, "base: %d CSC conflicts\n", len(base.CSCConflicts()))
		renderEquations(&b, base)
	}
	sols, sg := renderSolutions(g, solutionWorkers[0])
	if search {
		for _, w := range solutionWorkers[1:] {
			if got, _ := renderSolutions(g, w); got != sols {
				t.Errorf("workers=%d ranks differently from workers=%d:\n--- w%d ---\n%s--- w%d ---\n%s",
					w, solutionWorkers[0], w, got, solutionWorkers[0], sols)
			}
		}
	}
	b.WriteString(sols)
	if sg != nil {
		renderEquations(&b, sg)
	}
	return b.String()
}

// TestSynthesisGolden pins the synthesis decisions of the whole corpus: the
// chosen CSC insertions with their literal costs and ranking (at every
// count in solutionWorkers), the complex-gate, gC and rs-latch equations,
// and the error texts. Run with -update to rewrite the golden after an
// intended change.
func TestSynthesisGolden(t *testing.T) {
	models := synthesisModels(t)
	rendered := make([]string, len(models))
	t.Run("models", func(t *testing.T) {
		for i, mdl := range models {
			i, mdl := i, mdl
			t.Run(mdl.name, func(t *testing.T) {
				t.Parallel()
				rendered[i] = fmt.Sprintf("== %s\n%s\n", mdl.name, renderSynthesis(t, mdl.g))
			})
		}
	})
	got := strings.Join(rendered, "")
	if *update {
		if err := os.WriteFile(synthesisGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(synthesisGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", synthesisGolden, got, want)
	}
}
