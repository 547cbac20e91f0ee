package faultinject

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
	"repro/internal/vme"
)

// leakCheck snapshots the goroutine count and returns a function that fails
// the test if the count has not settled back by the deadline — the "no
// goroutine leak" half of the harness's guarantee.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// wantTyped asserts that err matches the taxonomy entry the injected mode
// must produce. An unfired plan (engine finished before the Nth check) is
// allowed to succeed.
func wantTyped(t *testing.T, plan Plan, in *Injector, err error) {
	t.Helper()
	if !in.Fired() {
		if err != nil {
			t.Fatalf("%v never fired (only %d checks) yet errored: %v", plan, in.Calls(), err)
		}
		return
	}
	if err == nil {
		t.Fatalf("%v fired but the engine reported success", plan)
	}
	switch plan.Mode {
	case Cancel:
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("%v: want ErrCanceled, got %v", plan, err)
		}
	case Limit:
		var le budget.ErrLimit
		if !errors.As(err, &le) {
			t.Fatalf("%v: want ErrLimit, got %v", plan, err)
		}
	case Panic:
		var ie *budget.ErrInternal
		if !errors.As(err, &ie) {
			t.Fatalf("%v: want ErrInternal, got %v", plan, err)
		}
		if len(ie.Stack) == 0 {
			t.Fatalf("%v: ErrInternal without a stack", plan)
		}
	}
}

// TestSequentialEngines drives cancellation and limit errors into every
// exploration engine's amortized check site and requires the typed error —
// plus the partial result where the engine contracts one.
func TestSequentialEngines(t *testing.T) {
	net := gen.Philosophers(5)
	t.Run("reach", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Cancel, N: 3, Site: "reach.explore"},
			{Mode: Limit, N: 7, Site: "reach.explore"},
		} {
			in, b := New(plan)
			g, err := reach.Explore(net, reach.Options{Budget: b})
			wantTyped(t, plan, in, err)
			if g == nil || g.NumStates() == 0 {
				t.Fatalf("%v: no partial graph", plan)
			}
			in.Release()
		}
	})
	t.Run("stubborn", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Cancel, N: 2, Site: "stubborn.explore"},
			{Mode: Limit, N: 4, Site: "stubborn.explore"},
		} {
			in, b := New(plan)
			res, err := stubborn.Explore(net, stubborn.Options{Budget: b})
			wantTyped(t, plan, in, err)
			if res == nil || res.States == 0 {
				t.Fatalf("%v: no partial result", plan)
			}
			in.Release()
		}
	})
	t.Run("symbolic", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Cancel, N: 2, Site: "symbolic.iter"},
			{Mode: Limit, N: 3, Site: "symbolic.iter"},
		} {
			in, b := New(plan)
			res, err := symbolic.ReachOpts(net, symbolic.Options{Budget: b})
			wantTyped(t, plan, in, err)
			if res == nil || res.Iterations == 0 {
				t.Fatalf("%v: no partial fixpoint", plan)
			}
			in.Release()
		}
	})
	t.Run("unfold", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Cancel, N: 2, Site: "unfold.event"},
			{Mode: Limit, N: 3, Site: "unfold.event"},
		} {
			in, b := New(plan)
			u, err := unfold.Build(net, unfold.Options{Budget: b})
			wantTyped(t, plan, in, err)
			if u == nil {
				t.Fatalf("%v: no partial prefix", plan)
			}
			in.Release()
		}
	})
}

// TestWorkerPoolPanics proves the encoding candidate pool, on insertion and
// on concurrency reduction, and the logic synthesis pool recover injected
// panics into ErrInternal without wedging a sibling or leaking goroutines;
// cancellation and limits in the encoding pool surface typed too.
func TestWorkerPoolPanics(t *testing.T) {
	t.Run("encoding", func(t *testing.T) {
		for _, n := range []int{1, 4, 9} {
			plan := Plan{Mode: Panic, N: n, Site: "encoding.eval"}
			done := leakCheck(t)
			in, b := New(plan)
			_, err := encoding.SolutionsOpts(vme.ReadSTG(), 0, 3,
				encoding.Options{Workers: 4, Budget: b})
			wantTyped(t, plan, in, err)
			if !in.Fired() {
				t.Fatalf("%v: VME read enumerates many candidates; plan must fire", plan)
			}
			in.Release()
			done()
		}
	})
	t.Run("logic", func(t *testing.T) {
		sg, err := reach.BuildSG(gen.MullerPipeline(4), reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3} {
			plan := Plan{Mode: Panic, N: n, Site: "logic.worker"}
			done := leakCheck(t)
			in, b := New(plan)
			_, err := logic.SynthesizeOpts(sg, logic.ComplexGate,
				logic.Options{Workers: 4, Budget: b})
			wantTyped(t, plan, in, err)
			in.Release()
			done()
		}
	})
	t.Run("reduction", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Panic, N: 1, Site: "encoding.eval"},
			{Mode: Panic, N: 9, Site: "encoding.eval"},
			{Mode: Cancel, N: 6, Site: "encoding.eval"},
			{Mode: Limit, N: 2, Site: "encoding.eval"},
		} {
			done := leakCheck(t)
			in, b := New(plan)
			_, err := encoding.SolveByReduction(vme.ReadSTG(), 0,
				encoding.Options{Workers: 4, Budget: b})
			wantTyped(t, plan, in, err)
			if !in.Fired() {
				t.Fatalf("%v: VME read scores 54 orderings; plan must fire", plan)
			}
			in.Release()
			done()
		}
	})
	t.Run("encoding-cancel-and-limit", func(t *testing.T) {
		for _, plan := range []Plan{
			{Mode: Cancel, N: 6, Site: "encoding.eval"},
			{Mode: Limit, N: 2, Site: "encoding.eval"},
		} {
			done := leakCheck(t)
			in, b := New(plan)
			_, err := encoding.SolutionsOpts(vme.ReadSTG(), 0, 3,
				encoding.Options{Workers: 4, Budget: b})
			wantTyped(t, plan, in, err)
			in.Release()
			done()
		}
	})
}

// TestCorePipeline injects faults at the flow's phase boundaries and inside
// its phases, with either CSC method: Synthesize must always come back with
// a typed budget error (or, unfired, a verified netlist) — never a hang or
// a crash.
func TestCorePipeline(t *testing.T) {
	plans := []Plan{
		{Mode: Cancel, N: 1, Site: "core.encoding"},
		{Mode: Cancel, N: 1, Site: "core.logic"},
		{Mode: Cancel, N: 1, Site: "core.verify"},
		{Mode: Cancel, N: 5, Site: "encoding.eval"},
		{Mode: Limit, N: 8, Site: "encoding.eval"},
		{Mode: Panic, N: 2, Site: "encoding.eval"},
		{Mode: Cancel, N: 20, Site: "sim.explore"},
		{Mode: Cancel, N: 9, Site: "reach.toggle"},
		{Mode: Limit, N: 4, Site: "reach.label"},
	}
	for _, method := range []string{"", "reduce/"} {
		for _, workers := range []int{1, 4} {
			for _, plan := range plans {
				t.Run(fmt.Sprintf("%sw%d/%v", method, workers, plan), func(t *testing.T) {
					done := leakCheck(t)
					in, b := New(plan)
					defer in.Release()
					rep, err := core.Synthesize(vme.ReadSTG(), core.Options{
						Reduce:  method != "",
						Workers: workers,
						Budget:  b,
					})
					wantTyped(t, plan, in, err)
					if err == nil && rep.Netlist == nil {
						t.Fatal("success without a netlist")
					}
					done()
				})
			}
		}
	}
	// vme-read-write continues greedily from its first-round survivors, and
	// these checks fall in continuation rounds (the first round ends at
	// check 311 at one worker, of 2,256): the search must return their
	// trips, not move on to the next survivor.
	rwPlans := []Plan{
		{Mode: Limit, N: 2000, Site: "encoding.eval"},
		{Mode: Panic, N: 2200, Site: "encoding.eval"},
		{Mode: Cancel, N: 2000, Site: "encoding.eval"},
	}
	for _, workers := range []int{1, 4} {
		for _, plan := range rwPlans {
			t.Run(fmt.Sprintf("vme-read-write/w%d/%v", workers, plan), func(t *testing.T) {
				done := leakCheck(t)
				in, b := New(plan)
				defer in.Release()
				_, err := core.Synthesize(vme.ReadWriteSTG(), core.Options{Workers: workers, Budget: b})
				if !in.Fired() {
					t.Fatalf("%v never fired (%d checks)", plan, in.Calls())
				}
				wantTyped(t, plan, in, err)
				done()
			})
		}
	}
	// Technology mapping runs under the flow budget: its trial
	// verifications and care-set explorations check sim.explore, so trips
	// planned there come from mapping and the verify phase never runs.
	mapPlans := []Plan{
		{Mode: Cancel, N: 1, Site: "sim.explore"},
		{Mode: Limit, N: 3, Site: "sim.explore"},
		{Mode: Cancel, N: 1, Site: "core.map"},
	}
	for _, workers := range []int{1, 4} {
		for _, plan := range mapPlans {
			t.Run(fmt.Sprintf("map/w%d/%v", workers, plan), func(t *testing.T) {
				done := leakCheck(t)
				in, b := New(plan)
				defer in.Release()
				rep, err := core.Synthesize(vme.ReadSTG(), core.Options{
					MaxFanIn: 2,
					Workers:  workers,
					Budget:   b,
				})
				if !in.Fired() {
					t.Fatalf("%v never fired (%d checks)", plan, in.Calls())
				}
				wantTyped(t, plan, in, err)
				if plan.Site == "sim.explore" && (rep == nil || rep.Verification != nil) {
					t.Fatalf("%v: want the partial report of a mapping trip, got %+v", plan, rep)
				}
				done()
			})
		}
	}
}

// TestCoreFallbackLadder trips the explicit engine's state ceiling and
// checks the degradation ladder: the report records the failed explicit
// attempt, a cheaper engine completes, and no netlist is synthesized — all
// with a nil error.
func TestCoreFallbackLadder(t *testing.T) {
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{
		Budget:   &budget.Budget{MaxStates: 8},
		Fallback: true,
	})
	if err != nil {
		t.Fatalf("degraded run must succeed, got %v", err)
	}
	if rep.Netlist != nil {
		t.Fatal("degraded run must not synthesize a netlist")
	}
	if len(rep.Attempts) < 2 {
		t.Fatalf("want >= 2 attempts, got %v", rep.Attempts)
	}
	first := rep.Attempts[0]
	if first.Engine != "explicit" || first.Err == nil {
		t.Fatalf("first attempt must be the failed explicit build, got %+v", first)
	}
	if !errors.Is(first.Err, reach.ErrStateLimit) {
		t.Fatalf("explicit attempt error must match reach.ErrStateLimit, got %v", first.Err)
	}
	last := rep.Attempts[len(rep.Attempts)-1]
	if last.Engine == "explicit" {
		t.Fatalf("ladder never left the explicit engine: %v", rep.Attempts)
	}
	if last.States == 0 {
		t.Fatalf("winning rung reports zero states: %+v", last)
	}
	if rep.Summary() == "" {
		t.Fatal("degraded report must render a summary")
	}
}

// TestCoreFallbackCancelAborts: cancellation is never degraded around — it
// aborts the ladder with ErrCanceled.
func TestCoreFallbackCancelAborts(t *testing.T) {
	plan := Plan{Mode: Cancel, N: 2, Site: "symbolic.iter"}
	in, b := New(plan)
	defer in.Release()
	b.MaxStates = 8
	rep, err := core.Synthesize(vme.ReadSTG(), core.Options{Budget: b, Fallback: true})
	if !in.Fired() {
		t.Skip("symbolic rung converged before the injection point")
	}
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("want ErrCanceled out of the ladder, got %v", err)
	}
	if rep == nil || len(rep.Attempts) == 0 {
		t.Fatal("aborted ladder must still report its attempts")
	}
}
