package sim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
	"repro/internal/vme"
)

// TestVerifySpecSGMatchesRebuild runs Verify with and without the caller's
// state graph of the spec: on every netlist the flow synthesizes for the
// testdata corpus in the three architectures, handed the flow's own
// (dummy-contracted) state graph, and on the mutants of mutation_test.go.
// Results and errors must be identical, also when the caller's state graph
// numbers its states in reverse, so that the initial state is not state 0.
func TestVerifySpecSGMatchesRebuild(t *testing.T) {
	type run struct {
		name string
		nl   *logic.Netlist
		spec *stg.STG
		sg   *ts.SG
	}
	var runs []run
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
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
		for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC} {
			rep, err := core.Synthesize(g, core.Options{Style: style, SkipVerify: true})
			if err != nil {
				continue // non-persistent or deadlocking specs have no netlist
			}
			runs = append(runs, run{fmt.Sprintf("%s/%v", filepath.Base(path), style), rep.Netlist, rep.Spec, rep.SG})
		}
	}
	corpus := len(runs)
	if corpus < 15 {
		t.Fatalf("only %d corpus netlists synthesized", corpus)
	}

	spec := timedSpec(t)
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	mutants := append(polarityMutants(golden), droppedCubeMutants(golden)...)
	for i, mut := range mutants {
		runs = append(runs, run{fmt.Sprintf("mutant-%d", i), mut.nl, spec, sg})
	}

	caught := 0
	for i, r := range runs {
		opts := sim.Options{MaxViolations: 3}
		want, wantErr := sim.Verify(r.nl, r.spec, opts)
		for _, sg := range []*ts.SG{r.sg, reversed(r.sg)} {
			opts.SG = sg
			got, gotErr := sim.Verify(r.nl, r.spec, opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error with the caller's SG %v, without %v", r.name, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result with the caller's SG %+v, without %+v", r.name, got, want)
			}
		}
		switch failed := wantErr != nil || !want.OK(); {
		case i < corpus && failed:
			t.Fatalf("%s: the flow's netlist fails verification: %v %+v", r.name, wantErr, want)
		case failed:
			caught++
		}
	}
	if mutants := len(runs) - corpus; caught != mutants {
		t.Fatalf("%d of %d mutants fail verification", caught, mutants)
	}
}

// reversed returns sg with its states numbered in reverse order.
func reversed(sg *ts.SG) *ts.SG {
	n := sg.NumStates()
	out := &ts.SG{Name: sg.Name, Signals: sg.Signals, Initial: n - 1 - sg.Initial,
		States: make([]ts.State, n), Out: make([][]ts.Arc, n)}
	for s, arcs := range sg.Out {
		out.States[n-1-s] = sg.States[s]
		for _, a := range arcs {
			out.Out[n-1-s] = append(out.Out[n-1-s], ts.Arc{Event: a.Event, To: n - 1 - a.To})
		}
	}
	return out
}

// TestVerifyForeignSGUnsafeSpec hands Verify and StateGraph the state graph
// of vme-read with a spec that is not safe: a copy of vme-read whose LDS+
// also feeds a marked place nothing consumes. The spec's token game puts a
// second token there, which must fail as an unsafe spec instead of
// merging the tokens.
func TestVerifyForeignSGUnsafeSpec(t *testing.T) {
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := rep.Spec.Clone()
	sink := spec.Net.AddPlace("sink", 1)
	spec.Net.ArcTP(spec.Net.TransitionIndex("LDS+"), sink)
	_, err = sim.Verify(rep.Netlist, spec, sim.Options{SG: rep.SG})
	if !errors.Is(err, reach.ErrUnsafe) || !strings.Contains(err.Error(), "firing LDS+ from") {
		t.Fatalf("Verify: got %v, want an unsafe firing of LDS+", err)
	}
	_, err = sim.StateGraph(rep.Netlist, spec, sim.Options{SG: rep.SG})
	if !errors.Is(err, reach.ErrUnsafe) {
		t.Fatalf("StateGraph: got %v, want reach.ErrUnsafe", err)
	}
}
