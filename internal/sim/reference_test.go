package sim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/timing"
	"repro/internal/ts"
	"repro/internal/vme"
)

// This file keeps a straightforward composed exploration as the reference
// for sim.Verify and sim.StateGraph: every move looks its gates up by
// signal, fires the spec net into fresh markings, finds dummy-closure
// matches by a BFS over every transition, and keys its visited set by the
// marking's Key string. The tests below require the production explorer
// to return exactly what it returns.

type refKey struct {
	v       uint64
	m       string
	permits uint32
}

type refVerifier struct {
	nl   *logic.Netlist
	spec *stg.STG
	opts sim.Options

	specToNet []int
	netToSpec []int

	res  *sim.Result
	seen map[refKey]bool
}

type refMove struct {
	netSig   int
	dir      stg.Dir
	name     string
	specPath []int
}

func refMaxStates(o sim.Options) int { return o.Budget.StateLimit(1 << 20) }

func refMaxViol(o sim.Options) int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return 1
}

func referenceVerify(nl *logic.Netlist, spec *stg.STG, opts sim.Options) (*sim.Result, error) {
	ver, v0, err := newRefVerifier(nl, spec, opts)
	if err != nil {
		return nil, err
	}
	if len(opts.Constraints) > 32 {
		return nil, fmt.Errorf("sim: more than 32 timing constraints")
	}
	var permits0 uint32
	for i, c := range opts.Constraints {
		if c.InitialPermit {
			permits0 |= 1 << uint(i)
		}
	}
	if err := ver.explore(v0, spec.Net.InitialMarking(), permits0); err != nil {
		return ver.res, err
	}
	return ver.res, nil
}

func newRefVerifier(nl *logic.Netlist, spec *stg.STG, opts sim.Options) (*refVerifier, uint64, error) {
	if err := nl.Validate(); err != nil {
		return nil, 0, err
	}
	if len(nl.Signals) > 64 {
		return nil, 0, fmt.Errorf("sim: more than 64 netlist signals")
	}
	ver := &refVerifier{nl: nl, spec: spec, opts: opts, res: &sim.Result{}, seen: map[refKey]bool{}}
	ver.specToNet = make([]int, len(spec.Signals))
	ver.netToSpec = make([]int, len(nl.Signals))
	for i := range ver.netToSpec {
		ver.netToSpec[i] = -1
	}
	for i, s := range spec.Signals {
		idx := nl.SignalIndex(s.Name)
		if idx < 0 {
			return nil, 0, fmt.Errorf("sim: spec signal %s missing from netlist", s.Name)
		}
		ver.specToNet[i] = idx
		ver.netToSpec[idx] = i
	}
	specSG := opts.SG
	if specSG == nil {
		sg, err := reach.BuildSG(spec, reach.Options{Budget: opts.Budget})
		if err != nil {
			return nil, 0, fmt.Errorf("sim: spec rejected: %w", err)
		}
		specSG = sg
	}
	var v0 uint64
	for i := range spec.Signals {
		if specSG.States[specSG.Initial].Code.Bit(i) {
			v0 |= 1 << uint(ver.specToNet[i])
		}
	}
	v0, err := ver.settleExtras(v0)
	if err != nil {
		return nil, 0, err
	}
	return ver, v0, nil
}

func (ver *refVerifier) settleExtras(v uint64) (uint64, error) {
	var extras []int
	for i := range ver.nl.Signals {
		if ver.netToSpec[i] < 0 {
			extras = append(extras, i)
		}
	}
	if len(extras) == 0 {
		return v, nil
	}
	if len(extras) > 16 {
		return 0, fmt.Errorf("sim: too many implementation-only wires (%d)", len(extras))
	}
	for combo := 0; combo < 1<<uint(len(extras)); combo++ {
		cand := v
		for bi, idx := range extras {
			if combo&(1<<uint(bi)) != 0 {
				cand |= 1 << uint(idx)
			}
		}
		ok := true
		for _, idx := range extras {
			if ver.nl.GateFor(idx) != nil && ver.nl.Excited(cand, idx) {
				ok = false
				break
			}
		}
		if ok {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("sim: no stable assignment for implementation-only wires")
}

func (ver *refVerifier) violate(kind sim.ViolationKind, signal, msg string) {
	ver.res.Violations = append(ver.res.Violations, sim.Violation{Kind: kind, Signal: signal, Msg: msg})
}

func (ver *refVerifier) explore(v0 uint64, m0 petri.Marking, permits0 uint32) error {
	type node struct {
		v       uint64
		m       petri.Marking
		permits uint32
	}
	ver.seen[refKey{v0, m0.Key(), permits0}] = true
	stack := []node{{v0, m0, permits0}}
	maxStates := refMaxStates(ver.opts)
	hooked := ver.opts.Budget.Hooked()
	for len(stack) > 0 && len(ver.res.Violations) < refMaxViol(ver.opts) {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ver.res.States++
		if ver.res.States > maxStates {
			ver.res.States--
			return budget.LimitStates(maxStates, ver.res.States)
		}
		if hooked || ver.res.States%budget.CheckEvery == 0 {
			if err := ver.opts.Budget.Check("sim.explore"); err != nil {
				return err
			}
		}
		for i := range ver.nl.Gates {
			g := &ver.nl.Gates[i]
			if g.Kind == logic.CElem && g.Set.Eval(nd.v) && g.Reset.Eval(nd.v) {
				ver.violate(sim.DriveFight, ver.nl.Signals[g.Output],
					fmt.Sprintf("set and reset both active at %b", nd.v))
			}
		}
		moves := ver.movesAt(nd.v, nd.m, nd.permits)
		if len(moves) == 0 {
			if !ver.specDead(nd.m) {
				ver.violate(sim.Deadlock, "-",
					fmt.Sprintf("no moves at vector %b, spec marking %s", nd.v, nd.m.Format(ver.spec.Net)))
			}
			continue
		}
		for _, mv := range moves {
			nv := nd.v
			if mv.netSig >= 0 {
				nv ^= 1 << uint(mv.netSig)
			}
			nm := nd.m
			for _, t := range mv.specPath {
				nm = ver.spec.Net.Fire(nm, t)
			}
			for idx := range ver.nl.Signals {
				gate := ver.nl.GateFor(idx)
				if idx == mv.netSig || gate == nil || gate.Kind == logic.MutexHalf {
					continue
				}
				if ver.nl.Excited(nd.v, idx) && !ver.nl.Excited(nv, idx) {
					ver.violate(sim.Hazard, ver.nl.Signals[idx],
						fmt.Sprintf("excited %s disabled by %s at vector %b",
							ver.nl.Signals[idx], mv.name, nd.v))
					if len(ver.res.Violations) >= refMaxViol(ver.opts) {
						return nil
					}
				}
			}
			np := ver.updatePermits(nd.permits, mv)
			key := refKey{nv, nm.Key(), np}
			if !ver.seen[key] {
				ver.seen[key] = true
				stack = append(stack, node{nv, nm, np})
			}
		}
	}
	return nil
}

func (ver *refVerifier) movesAt(v uint64, m petri.Marking, permits uint32) []refMove {
	blocked := func(signal string, dir stg.Dir) bool {
		for ci, c := range ver.opts.Constraints {
			if c.Later.Signal == signal && c.Later.Dir == dir && permits&(1<<uint(ci)) == 0 {
				return true
			}
		}
		return false
	}
	var out []refMove
	for t := range ver.spec.Net.Transitions {
		if !ver.spec.Net.Enabled(m, t) {
			continue
		}
		l := ver.spec.Labels[t]
		if l.Sig < 0 {
			out = append(out, refMove{netSig: -1, specPath: []int{t},
				name: ver.spec.Net.Transitions[t].Name})
			continue
		}
		if ver.spec.Signals[l.Sig].Kind != stg.Input {
			continue
		}
		idx := ver.specToNet[l.Sig]
		cur := v&(1<<uint(idx)) != 0
		if (l.Dir == stg.Rise) == cur {
			ver.violate(sim.Conformance, ver.spec.Signals[l.Sig].Name,
				fmt.Sprintf("input %s enabled in spec but wire already %v",
					ver.spec.Net.Transitions[t].Name, cur))
			continue
		}
		if blocked(ver.spec.Signals[l.Sig].Name, l.Dir) {
			continue
		}
		out = append(out, refMove{netSig: idx, dir: l.Dir, specPath: []int{t},
			name: ver.spec.Net.Transitions[t].Name})
	}
	for idx := range ver.nl.Signals {
		if ver.nl.GateFor(idx) == nil || !ver.nl.Excited(v, idx) {
			continue
		}
		cur := v&(1<<uint(idx)) != 0
		dir := stg.Rise
		if cur {
			dir = stg.Fall
		}
		if blocked(ver.nl.Signals[idx], dir) {
			continue
		}
		specSig := ver.netToSpec[idx]
		if specSig < 0 {
			out = append(out, refMove{netSig: idx, dir: dir,
				name: ver.nl.Signals[idx] + dir.String()})
			continue
		}
		matched := false
		for _, hit := range ver.closureMatches(m, specSig, dir) {
			matched = true
			out = append(out, refMove{netSig: idx, dir: dir, specPath: hit,
				name: ver.spec.Net.Transitions[hit[len(hit)-1]].Name})
		}
		if !matched {
			ver.violate(sim.Conformance, ver.nl.Signals[idx],
				fmt.Sprintf("circuit produces %s%s not expected at %s",
					ver.nl.Signals[idx], dir.String(), m.Format(ver.spec.Net)))
		}
	}
	return out
}

func (ver *refVerifier) closureMatches(m petri.Marking, sig int, dir stg.Dir) [][]int {
	type node struct {
		m    petri.Marking
		path []int
	}
	var out [][]int
	seen := map[string]bool{m.Key(): true}
	queue := []node{{m: m}}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for t := range ver.spec.Net.Transitions {
			if !ver.spec.Net.Enabled(nd.m, t) {
				continue
			}
			l := ver.spec.Labels[t]
			if l.Sig == sig && l.Dir == dir {
				out = append(out, append(append([]int(nil), nd.path...), t))
				continue
			}
			if l.Sig >= 0 {
				continue
			}
			next := ver.spec.Net.Fire(nd.m, t)
			if !seen[next.Key()] {
				seen[next.Key()] = true
				queue = append(queue, node{m: next, path: append(append([]int(nil), nd.path...), t)})
			}
		}
	}
	return out
}

func (ver *refVerifier) updatePermits(permits uint32, mv refMove) uint32 {
	for ci, c := range ver.opts.Constraints {
		bit := uint32(1) << uint(ci)
		if ver.matches(mv, c.Earlier) {
			permits |= bit
		}
		if ver.matches(mv, c.Later) {
			permits &^= bit
		}
	}
	return permits
}

func (ver *refVerifier) matches(mv refMove, e sim.EventRef) bool {
	return mv.netSig >= 0 && ver.nl.Signals[mv.netSig] == e.Signal && mv.dir == e.Dir
}

func (ver *refVerifier) specDead(m petri.Marking) bool {
	for t := range ver.spec.Net.Transitions {
		if ver.spec.Net.Enabled(m, t) {
			return false
		}
	}
	return true
}

func referenceStateGraph(nl *logic.Netlist, spec *stg.STG, opts sim.Options) (*ts.SG, error) {
	if len(opts.Constraints) > 0 {
		return nil, fmt.Errorf("sim: StateGraph does not support timing constraints; prune afterwards")
	}
	ver, v0, err := newRefVerifier(nl, spec, opts)
	if err != nil {
		return nil, err
	}
	out := &ts.SG{Name: nl.Name + "-impl", FormatKey: func(key string) string {
		return petri.Marking(key[strings.IndexByte(key, '|')+1:]).Format(spec.Net)
	}}
	for i, name := range nl.Signals {
		kind := stg.Internal
		if s := ver.netToSpec[i]; s >= 0 {
			kind = spec.Signals[s].Kind
		}
		out.Signals = append(out.Signals, stg.Signal{Name: name, Kind: kind})
	}
	type node struct {
		v uint64
		m petri.Marking
	}
	index := map[refKey]int{}
	addState := func(v uint64, m petri.Marking) int {
		key := refKey{v, m.Key(), 0}
		if i, ok := index[key]; ok {
			return i
		}
		i := len(out.States)
		index[key] = i
		out.States = append(out.States, ts.State{Code: ts.Code(v), Key: fmt.Sprintf("%b|%s", v, m.Key())})
		out.Out = append(out.Out, nil)
		return i
	}
	m0 := spec.Net.InitialMarking()
	out.Initial = addState(v0, m0)
	stack := []node{{v0, m0}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		si := index[refKey{nd.v, nd.m.Key(), 0}]
		moves := ver.movesAt(nd.v, nd.m, 0)
		if len(ver.res.Violations) > 0 {
			return nil, fmt.Errorf("sim: cannot extract SG from violating circuit: %v",
				ver.res.Violations[0])
		}
		for _, mv := range moves {
			nv := nd.v
			if mv.netSig >= 0 {
				nv ^= 1 << uint(mv.netSig)
			}
			nm := nd.m
			for _, t := range mv.specPath {
				nm = ver.spec.Net.Fire(nm, t)
			}
			_, existed := index[refKey{nv, nm.Key(), 0}]
			di := addState(nv, nm)
			ev := ts.Event{Sig: mv.netSig, Dir: mv.dir, Name: mv.name}
			if mv.netSig >= 0 {
				ev.Name = nl.Signals[mv.netSig] + mv.dir.String()
			}
			out.Out[si] = append(out.Out[si], ts.Arc{Event: ev, To: di})
			if !existed {
				stack = append(stack, node{nv, nm})
			}
			if len(out.States) > refMaxStates(ver.opts) {
				// The cap trips with the typed state-limit error, counting
				// the states held before the one that overflowed.
				return nil, budget.LimitStates(refMaxStates(ver.opts), len(out.States)-1)
			}
		}
	}
	return out, nil
}

// refCase is one netlist the reference comparison runs on.
type refCase struct {
	name string
	nl   *logic.Netlist
	spec *stg.STG
	sg   *ts.SG // the flow's state graph of spec, handed over as Options.SG
	cons []sim.RelativeOrder
}

// referenceCases collects the comparison's netlists, once per test binary:
// the flow's netlists for the testdata corpus, muller-1..5, cscring-2..3
// and the 35-signal Johnson ring in the three architectures, their polarity and dropped-cube
// mutants, the flow's fan-in-2 mapped netlists (which carry
// implementation-only wires) with their mutants, the vme-read circuit
// under every single relative timing constraint over its edges, the mutex
// arbiter with its combinational twin, and the Figure 11c circuit under
// its relative timing constraint, with its mutants under the same
// constraint.
func referenceCases(t *testing.T) []refCase {
	t.Helper()
	refOnce.Do(func() { refCached = collectReferenceCases(t) })
	if refCached == nil {
		t.Fatal("reference cases failed to build")
	}
	return refCached
}

var (
	refOnce   sync.Once
	refCached []refCase
)

func collectReferenceCases(t *testing.T) []refCase {
	specs := map[string]*stg.STG{}
	var names []string
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
		names = append(names, filepath.Base(path))
		specs[filepath.Base(path)] = g
	}
	for n := 1; n <= 5; n++ {
		name := fmt.Sprintf("muller-%d", n)
		names = append(names, name)
		specs[name] = gen.MullerPipeline(n)
	}
	for k := 2; k <= 3; k++ {
		name := fmt.Sprintf("cscring-%d", k)
		names = append(names, name)
		specs[name] = gen.CSCRing(k)
	}
	// 70 places: the spec's markings take two words.
	names = append(names, "johnson-35")
	specs["johnson-35"] = gen.JohnsonRing(35)

	var cases []refCase
	withMutants := func(c refCase) {
		cases = append(cases, c)
		muts := append(polarityMutants(c.nl), droppedCubeMutants(c.nl)...)
		for i, mut := range muts {
			cases = append(cases, refCase{fmt.Sprintf("%s/mutant-%d", c.name, i), mut.nl, c.spec, c.sg, c.cons})
		}
	}
	var vmeRead *core.Report
	for _, name := range names {
		g := specs[name]
		for _, style := range []logic.Style{logic.ComplexGate, logic.GeneralizedC, logic.StandardC} {
			rep, err := core.Synthesize(g, core.Options{Style: style, SkipVerify: true})
			if err != nil {
				continue // non-persistent or deadlocking specs have no netlist
			}
			withMutants(refCase{name: fmt.Sprintf("%s/%v", name, style), nl: rep.Netlist, spec: rep.Spec, sg: rep.SG})
			if name == "vme-read.g" && style == logic.ComplexGate {
				vmeRead = rep
			}
		}
		// vme-read-write's and the rings' mappings fail after 0.6-1.1 s
		// each without a netlist, so they are not mapped here.
		if name == "vme-read-write.g" || strings.HasPrefix(name, "cscring") {
			continue
		}
		rep, err := core.Synthesize(g, core.Options{MaxFanIn: 2, SkipVerify: true})
		if err == nil {
			withMutants(refCase{name: name + "/fanin-2", nl: rep.Netlist, spec: rep.Spec, sg: rep.SG})
		}
	}

	// Every ordered pair of the vme-read circuit's edges as a relative
	// timing constraint, with and without an initial permit: some reach a
	// vector and marking again with the other permit, some block an edge
	// the circuit needs.
	if vmeRead == nil {
		t.Fatal("vme-read.g does not synthesize")
	}
	var edges []sim.EventRef
	for _, l := range vmeRead.Spec.Labels {
		if l.Sig < 0 {
			continue
		}
		if e := (sim.EventRef{Signal: vmeRead.Spec.Signals[l.Sig].Name, Dir: l.Dir}); !slices.Contains(edges, e) {
			edges = append(edges, e)
		}
	}
	for _, earlier := range edges {
		for _, later := range edges {
			if earlier == later {
				continue
			}
			for _, initial := range []bool{false, true} {
				cons := sim.RelativeOrder{Earlier: earlier, Later: later, InitialPermit: initial}
				cases = append(cases, refCase{name: fmt.Sprintf("vme-read/%v/%v", cons, initial),
					nl: vmeRead.Netlist, spec: vmeRead.Spec, sg: vmeRead.SG, cons: []sim.RelativeOrder{cons}})
			}
		}
	}

	arbiter := arbiterSpec(t)
	arbiterSG, err := reach.BuildSG(arbiter, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []logic.GateKind{logic.MutexHalf, logic.Comb} {
		cases = append(cases, refCase{name: "arbiter/" + kind.String(), nl: arbiterNetlist(t, kind), spec: arbiter, sg: arbiterSG})
	}

	timed, _, err := timing.AddTimingOrder(vme.ReadSTG(), "LDTACK-", "DSr+")
	if err != nil {
		t.Fatal(err)
	}
	timed, cons, err := timing.Retrigger(timed, "LDS-", "D-", "DSr-")
	if err != nil {
		t.Fatal(err)
	}
	timedSG, err := reach.BuildSG(timed, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fig11, err := logic.Synthesize(timedSG, logic.ComplexGate)
	if err != nil {
		t.Fatal(err)
	}
	withMutants(refCase{name: "fig11c", nl: fig11, spec: timed, sg: timedSG, cons: []sim.RelativeOrder{cons}})
	return cases
}

// refOptions lists the option sets every case runs under: MaxViolations 1,
// 3 and 16, with and without the flow's state graph, with no budget and
// with a 7-state budget. Without the flow's graph the budget also caps the
// spec's BuildSG, so the capped runs that trip in the composed search are
// the ones handed the graph.
func refOptions(c refCase) []sim.Options {
	var out []sim.Options
	for _, maxViol := range []int{1, 3, 16} {
		for _, sg := range []*ts.SG{nil, c.sg} {
			for _, bgt := range []*budget.Budget{nil, {MaxStates: 7}} {
				out = append(out, sim.Options{MaxViolations: maxViol, SG: sg, Budget: bgt, Constraints: c.cons})
			}
		}
	}
	return out
}

// TestVerifyMatchesReference requires sim.Verify to return exactly the
// reference's result and error on every case and option set: the same
// state count, the same violations in the same order with the same texts,
// the same state-limit trips.
func TestVerifyMatchesReference(t *testing.T) {
	cases := referenceCases(t)
	if len(cases) < 500 {
		t.Fatalf("only %d netlists collected", len(cases))
	}
	var compared, failing, tripped, searchTrips, wires, constrained int
	for _, c := range cases {
		if len(c.nl.Signals) > len(c.spec.Signals) {
			wires++
		}
		for _, opts := range refOptions(c) {
			want, wantErr := referenceVerify(c.nl, c.spec, opts)
			got, gotErr := sim.Verify(c.nl, c.spec, opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %+v: error %v, reference %v", c.name, opts, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: result %+v, reference %+v", c.name, opts, got, want)
			}
			compared++
			if want != nil && len(want.Violations) > 0 {
				failing++
				if len(c.cons) > 0 {
					constrained++
				}
			}
			if wantErr != nil {
				tripped++
				if errors.Is(wantErr, reach.ErrStateLimit) && opts.SG != nil {
					searchTrips++
				}
			}
		}
	}
	if failing == 0 || tripped == 0 || searchTrips == 0 || wires == 0 || constrained == 0 {
		t.Fatalf("the cases exercise too little: %d violating, %d erroring (%d state-limit trips of the composed search), %d with implementation-only wires, %d constrained violating runs",
			failing, tripped, searchTrips, wires, constrained)
	}
	t.Logf("%d netlists, %d comparisons, %d with violations, %d with errors", len(cases), compared, failing, tripped)
}

// sameSG reports whether two state graphs have the same name, signals,
// states, keys, arcs, initial state and labels.
func sameSG(a, b *ts.SG) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Initial != b.Initial || !reflect.DeepEqual(a.Signals, b.Signals) ||
		!reflect.DeepEqual(a.States, b.States) || !reflect.DeepEqual(a.Out, b.Out) {
		return false
	}
	for s := range a.States {
		if a.Label(s) != b.Label(s) {
			return false
		}
	}
	return true
}

// TestStateGraphMatchesReference requires sim.StateGraph to return the
// reference's states, keys and arcs, or its error, on every case that
// verifies: with and without the flow's state graph, with no budget and
// with a 7-state budget.
func TestStateGraphMatchesReference(t *testing.T) {
	var built, tripped, searchTrips int
	for _, c := range referenceCases(t) {
		if res, err := sim.Verify(c.nl, c.spec, sim.Options{Constraints: c.cons}); err != nil || !res.OK() {
			continue
		}
		for _, sg := range []*ts.SG{nil, c.sg} {
			for _, bgt := range []*budget.Budget{nil, {MaxStates: 7}} {
				opts := sim.Options{SG: sg, Budget: bgt}
				want, wantErr := referenceStateGraph(c.nl, c.spec, opts)
				got, gotErr := sim.StateGraph(c.nl, c.spec, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %+v: error %v, reference %v", c.name, opts, gotErr, wantErr)
				}
				if !sameSG(got, want) {
					t.Fatalf("%s %+v: state graph differs from the reference", c.name, opts)
				}
				if wantErr != nil {
					tripped++
					if errors.Is(wantErr, reach.ErrStateLimit) && opts.SG != nil {
						searchTrips++
					}
				} else {
					built++
				}
			}
		}
	}
	if built == 0 || tripped == 0 || searchTrips == 0 {
		t.Fatalf("%d state graphs built, %d errors (%d state-limit trips of the composed search): the cases exercise too little",
			built, tripped, searchTrips)
	}
}
