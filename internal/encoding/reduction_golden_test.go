package encoding

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/reach"
)

const reductionGolden = "testdata/reduction.golden"

// TestReductionGolden pins the concurrency-reduction search: for every
// corpus model, the base CSC conflict count, the verdict of every ordering
// of the first reduction round (when the base has conflicts) in
// enumeration order — its rejection reason, or its (conflicts, literals)
// key — and the solution SolveByReduction returns or the error it fails
// with. The verdicts come from the pooled scoring path, and the golden
// holds at one and two workers. Regenerate with -args -update only for an
// intended change of the search's outcome.
func TestReductionGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers}
		var b strings.Builder
		for _, m := range rankedModels(t, 2, 3) {
			fmt.Fprintf(&b, "== %s\n", m.name)
			ctx := newEvalCtx(opts)
			spec, err := explore(m.g, reach.Options{})
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			base := len(spec.SG.CSCConflicts())
			fmt.Fprintf(&b, "base conflicts: %d\n", base)
			if base > 0 {
				all, err := scoreReductions(m.g, base, ctx)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				lines := make([]string, len(all))
				for i, r := range all {
					if r.sol == nil {
						lines[i] = r.desc + " | " + reasonNames[r.v.reason] + "\n"
					} else {
						lines[i] = fmt.Sprintf("%s | %d %d\n", r.desc, r.v.conflicts, r.sol.Literals)
					}
				}
				writeLines(&b, "orderings", lines)
			}
			sol, err := SolveByReduction(m.g, 0, opts)
			if err != nil {
				fmt.Fprintf(&b, "solution error: %v\n", err)
				continue
			}
			fmt.Fprintf(&b, "solution: %q, %d literals, %d states\n", sol.Description, sol.Literals, sol.SG.NumStates())
		}
		matchGolden(t, reductionGolden, b.String())
	}
}
