package encoding

import (
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/stg"
	"repro/internal/vme"
)

// TestSearchExploresEachSTGOnce counts the reach.label budget checks of
// SolutionsOpts with the flow's settings (three signals, five solutions):
// one per labelled state of each budgeted exploration, which are the
// input's and each ranked survivor's, each explored once. The explorations
// that cost solved candidates inside the worker pool run without the
// budget, so the count is the same at every worker count. A search that
// explored the input again for its first round, and each survivor again
// for its continuation round, would read 44, 438 and 868.
func TestSearchExploresEachSTGOnce(t *testing.T) {
	for _, m := range []struct {
		name string
		g    *stg.STG
		want int64
	}{
		{"vme-read", vme.ReadSTG(), 30},
		{"vme-read-write", vme.ReadWriteSTG(), 284},
		{"cscring-4", gen.CSCRing(4), 574}, // ends unsolved
	} {
		for _, w := range []int{1, 2} {
			var labels atomic.Int64
			b := &budget.Budget{Hook: func(site string) error {
				if site == "reach.label" {
					labels.Add(1)
				}
				return nil
			}}
			SolutionsOpts(m.g, 3, 5, Options{Workers: w, Budget: b})
			if got := labels.Load(); got != m.want {
				t.Errorf("%s w=%d: %d reach.label checks, want %d", m.name, w, got, m.want)
			}
		}
	}
}
