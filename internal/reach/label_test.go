package reach

import (
	"os"
	"strings"
	"testing"

	"repro/internal/petri"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

// TestLabelsFromKeys checks the labels BuildSG formats on demand against
// markings replayed independently: from the initial marking, every arc
// fires its net transition. It covers the plain path, the toggle path and
// dummy contraction, whose states keep the label of their group's root.
func TestLabelsFromKeys(t *testing.T) {
	data, err := os.ReadFile("../../testdata/dummy-hs.g")
	if err != nil {
		t.Fatal(err)
	}
	dummy, err := stg.ParseG(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*stg.STG{vme.ReadSTG(), toggleRingSpec(4), dummy} {
		sg, trans, err := BuildSGTrans(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, sg.NumStates())
		marking := map[int]petri.Marking{sg.Initial: g.Net.InitialMarking()}
		queue := []int{sg.Initial}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			want[s] = marking[s].Format(g.Net)
			for i, a := range sg.Out[s] {
				if _, ok := marking[a.To]; !ok {
					marking[a.To] = g.Net.Fire(marking[s], trans[s][i])
					queue = append(queue, a.To)
				}
			}
		}
		byKey := map[string]string{}
		for s := range sg.States {
			if got := sg.Label(s); got != want[s] {
				t.Fatalf("%s: state %d labeled %s, replayed marking %s", g.Name(), s, got, want[s])
			}
			byKey[sg.States[s].Key] = want[s]
		}
		contracted, err := ts.ContractDummies(sg)
		if err != nil {
			t.Fatal(err)
		}
		for s := range contracted.States {
			if got := contracted.Label(s); got != byKey[contracted.States[s].Key] {
				t.Fatalf("%s: contracted state %d labeled %s, want %s", g.Name(), s, got, byKey[contracted.States[s].Key])
			}
		}
		if g == dummy && contracted.NumStates() == sg.NumStates() {
			t.Fatalf("%s: contraction merged no states", g.Name())
		}
	}
}
