// Package core is the flow façade: the paper's methodology end to end.
// Specification (STG) → analysis (Section 2) → complete state coding
// (Section 3.1) → next-state function derivation and gate synthesis
// (Section 3.2) → optional decomposition/technology mapping (Section 3.4) →
// implementation verification by composition with the specification mirror.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/encoding"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/techmap"
	"repro/internal/ts"
)

// Options configure Synthesize.
type Options struct {
	// Style selects the gate architecture (default ComplexGate).
	Style logic.Style
	// MaxFanIn, when > 0, runs decomposition/technology mapping to the
	// given gate input budget after synthesis.
	MaxFanIn int
	// Reduce resolves CSC conflicts by concurrency reduction, delaying
	// non-input transitions, instead of by state-signal insertion.
	Reduce bool
	// SkipVerify skips the final speed-independence verification.
	SkipVerify bool
	// Constraints are relative timing assumptions applied during
	// verification (Section 5).
	Constraints []sim.RelativeOrder
	// Workers sizes the worker pools of the encoding candidate search and
	// the per-signal logic derivation (0 or 1 = one worker). It changes only
	// how the work fans out: every count produces identical results.
	Workers int
	// Budget bounds the whole flow: its cancellation and resource ceilings
	// are threaded into every phase (state graph, encoding, logic,
	// verification). nil is unlimited.
	Budget *budget.Budget
	// Fallback enables the degradation ladder: when a budget limit (never a
	// cancellation) trips state-graph construction, analysis is retried
	// with progressively cheaper engines — symbolic BDD traversal, then
	// stubborn-set reduced exploration, then capped explicit exploration —
	// each under the remaining budget. A degraded run returns a Report with
	// Netlist == nil and the engines tried in Attempts.
	Fallback bool
	// Obs enables observability: the flow opens a "flow:synthesize" root
	// span with one "phase:*" child per phase, every engine records its
	// spans and counters into the registry, and the final Report carries a
	// structured Metrics snapshot. nil — the default — disables all of it at
	// zero cost.
	Obs *obs.Registry
}

// Attempt records one analysis engine tried by the degradation ladder.
type Attempt struct {
	// Engine names the rung: "explicit", "symbolic", "stubborn" or
	// "explicit-capped".
	Engine string
	// Err is the typed budget error that stopped the rung; nil on success.
	Err error
	// States is the number of states the rung counted or visited (partial
	// on failed rungs).
	States int
	// Duration is the rung's wall-clock time.
	Duration time.Duration
	// Detail carries engine-specific diagnostics — BDD kernel stats on the
	// symbolic rung — so degraded runs are explainable without rerunning
	// under -metrics. "" when the engine has none.
	Detail string
}

func (a Attempt) String() string {
	out := fmt.Sprintf("%s: %d states in %v", a.Engine, a.States, a.Duration.Round(time.Millisecond))
	if a.Detail != "" {
		out += fmt.Sprintf(" [%s]", a.Detail)
	}
	if a.Err != nil {
		out += fmt.Sprintf(" (%v)", a.Err)
	}
	return out
}

// Timing is the per-phase wall-clock breakdown of a flow run.
type Timing struct {
	SG       time.Duration
	Encoding time.Duration
	Logic    time.Duration
	Mapping  time.Duration
	Verify   time.Duration
}

func (t Timing) String() string {
	s := fmt.Sprintf("sg=%v encoding=%v logic=%v", t.SG, t.Encoding, t.Logic)
	if t.Mapping > 0 {
		s += fmt.Sprintf(" map=%v", t.Mapping)
	}
	if t.Verify > 0 {
		s += fmt.Sprintf(" verify=%v", t.Verify)
	}
	return s
}

// Report is the result of a full synthesis run.
type Report struct {
	// Input is the original specification.
	Input *stg.STG
	// Spec is the final specification (after any state-signal insertion or
	// concurrency reduction).
	Spec *stg.STG
	// SG is the state graph of Spec.
	SG *ts.SG
	// Properties is the Section 2.1 implementability suite on the input.
	Properties ts.Implementability
	// CSC describes the encoding solution ("" when none was needed).
	CSC string
	// Netlist is the synthesized implementation.
	Netlist *logic.Netlist
	// Verification is the composition check result (nil when skipped).
	Verification *sim.Result
	// Attempts traces the analysis engines run by this flow, in order. A
	// degraded run (Options.Fallback after a budget trip) has the failed
	// explicit attempt followed by the fallback rungs and Netlist == nil.
	Attempts []Attempt
	// Timing is the phase breakdown of this run.
	Timing Timing
	// Metrics is the observability snapshot of this run — every engine
	// counter plus the flow → phase → engine span tree. nil unless
	// Options.Obs was set.
	Metrics *obs.Snapshot
}

// Equations renders the implementation equations ("" on degraded runs).
func (r *Report) Equations() string {
	if r.Netlist == nil {
		return ""
	}
	return r.Netlist.Equations()
}

// Summary renders a human-readable flow report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "specification: %s (%d signals, %d transitions)\n",
		r.Input.Name(), len(r.Input.Signals), len(r.Input.Net.Transitions))
	if r.SG != nil {
		fmt.Fprintf(&b, "state graph:   %d states, %d arcs\n", r.SG.NumStates(), r.SG.NumArcs())
		fmt.Fprintf(&b, "properties:    %s\n", r.Properties)
	}
	if r.CSC != "" {
		fmt.Fprintf(&b, "state coding:  %s\n", r.CSC)
	}
	if r.Netlist == nil {
		header := "degraded"
		if n := len(r.Attempts); n == 0 || r.Attempts[n-1].Err != nil {
			header = "aborted"
		}
		fmt.Fprintf(&b, "%s analysis (no netlist synthesized):\n", header)
		for _, a := range r.Attempts {
			fmt.Fprintf(&b, "  %s\n", a)
		}
		r.timingLine(&b)
		return b.String()
	}
	fmt.Fprintf(&b, "implementation (%d gates, %d literals, max fan-in %d):\n",
		len(r.Netlist.Gates), r.Netlist.LiteralCount(), r.Netlist.MaxFanIn())
	for _, line := range strings.Split(r.Equations(), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if r.Verification != nil {
		if r.Verification.OK() {
			fmt.Fprintf(&b, "verification:  speed-independent and conformant (%d composed states)\n",
				r.Verification.States)
		} else {
			fmt.Fprintf(&b, "verification:  FAILED: %v\n", r.Verification.Violations)
		}
	}
	r.timingLine(&b)
	return b.String()
}

// timingLine appends the phase-breakdown line when any phase was timed — the
// one exit line both the degraded and the synthesized summary share.
func (r *Report) timingLine(b *strings.Builder) {
	if r.Timing != (Timing{}) {
		fmt.Fprintf(b, "timing:        %s\n", r.Timing)
	}
}

// Synthesize runs the complete flow on an STG specification.
//
// With Options.Budget set, every phase honors the budget's cancellation and
// resource ceilings and aborts with the typed budget errors (errors.Is
// against budget.ErrCanceled / budget.Sentinel). With Options.Fallback also
// set, a budget *limit* during state-graph construction degrades to cheaper
// analysis engines instead of failing; see Options.Fallback.
func Synthesize(g *stg.STG, opts Options) (*Report, error) {
	flow := opts.Obs.Root("flow:synthesize")
	rep, err := synthesize(g, opts, flow)
	if flow != nil {
		if err != nil {
			flow.Attr("error", err.Error())
		}
		flow.End()
		if rep != nil {
			rep.Metrics = opts.Obs.Snapshot()
		}
	}
	return rep, err
}

func synthesize(g *stg.STG, opts Options, flow *obs.Span) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sgSpan := flow.Child("phase:sg")
	phase := time.Now()
	baseSG, err := reach.BuildSG(g, reach.Options{Budget: opts.Budget, Obs: sgSpan})
	if err != nil {
		sgSpan.End()
		sgDur := time.Since(phase)
		var le budget.ErrLimit
		if opts.Fallback && errors.As(err, &le) {
			// A resource ceiling tripped the explicit build: try the
			// cheaper engines.
			return degrade(g, opts, err, le, sgDur, flow)
		}
		wrapped := fmt.Errorf("core: state graph: %w", err)
		if budgetErr(err) {
			// Budget abort without fallback: hand back the aborted attempt
			// so callers can report how far the analysis got.
			rep := &Report{Input: g}
			rep.Attempts = append(rep.Attempts, Attempt{
				Engine: "explicit", Err: err, States: le.Used, Duration: sgDur,
			})
			return rep, wrapped
		}
		return nil, wrapped
	}
	// Dummy (λ) events are contracted for synthesis: regions are defined on
	// signal-edge arcs; the verifier still handles the dummies in the spec.
	baseSG, err = ts.ContractDummies(baseSG)
	sgSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: dummy contraction: %w", err)
	}
	rep := &Report{Input: g, Properties: baseSG.CheckImplementability()}
	rep.Timing.SG = time.Since(phase)
	rep.Attempts = append(rep.Attempts, Attempt{
		Engine: "explicit", States: baseSG.NumStates(), Duration: rep.Timing.SG,
	})
	if !rep.Properties.Persistent {
		return nil, fmt.Errorf("core: specification is not persistent (arbitration needed): %v",
			baseSG.PersistencyViolations()[0])
	}
	if !rep.Properties.DeadlockFree {
		return nil, fmt.Errorf("core: specification deadlocks")
	}

	if opts.MaxFanIn > 0 && opts.Style != logic.ComplexGate {
		return nil, fmt.Errorf("core: technology mapping requires the complex-gate style")
	}

	// State encoding can be solved in several ways; technology mapping may
	// fail on one encoding and succeed on another, so iterate over ranked
	// insertions. Concurrency reduction returns its one solution. A
	// specification that already has CSC has one: itself, on the state
	// graph just built.
	if err := opts.Budget.Check("core.encoding"); err != nil {
		return rep, err
	}
	sols := []*encoding.Solution{{STG: g, SG: baseSG}}
	if !rep.Properties.CSC {
		phase = time.Now()
		encSpan := flow.Child("phase:encoding")
		eopts := encoding.Options{Workers: opts.Workers, Budget: opts.Budget, Obs: encSpan}
		// Up to 3 inserted state signals, or with Reduce 3 orderings.
		if opts.Reduce {
			sols[0], err = encoding.SolveByReduction(g, 3, eopts)
		} else {
			sols, err = encoding.SolutionsOpts(g, 3, 5, eopts)
		}
		encSpan.End()
		if err != nil {
			if budgetErr(err) {
				return rep, err
			}
			return nil, fmt.Errorf("core: state encoding: %w", err)
		}
		rep.Timing.Encoding = time.Since(phase)
	}
	if err := opts.Budget.Check("core.logic"); err != nil {
		return rep, err
	}
	var lastErr error
	logicSpan := flow.Child("phase:logic")
	for _, sol := range sols {
		rep.Spec, rep.SG, rep.CSC = sol.STG, sol.SG, sol.Description
		phase = time.Now()
		rep.Netlist, err = logic.SynthesizeOpts(rep.SG, opts.Style,
			logic.Options{Workers: opts.Workers, Budget: opts.Budget, Obs: logicSpan})
		rep.Timing.Logic += time.Since(phase)
		if err != nil {
			if budgetErr(err) {
				logicSpan.End()
				return rep, err
			}
			lastErr = fmt.Errorf("core: logic synthesis: %w", err)
			continue
		}
		if opts.MaxFanIn > 0 {
			if err := opts.Budget.Check("core.map"); err != nil {
				logicSpan.End()
				return rep, err
			}
			phase = time.Now()
			mapSpan := flow.Child("phase:map")
			rep.Netlist, err = techmap.Map(rep.Netlist, rep.Spec, techmap.Options{
				MaxFanIn: opts.MaxFanIn, Sim: sim.Options{SG: rep.SG, Budget: opts.Budget}})
			mapSpan.End()
			rep.Timing.Mapping += time.Since(phase)
			if err != nil {
				if budgetErr(err) {
					logicSpan.End()
					return rep, err
				}
				lastErr = fmt.Errorf("core: technology mapping: %w", err)
				continue
			}
		}
		lastErr = nil
		break
	}
	logicSpan.End()
	if lastErr != nil {
		return nil, lastErr
	}
	if !opts.SkipVerify {
		if err := opts.Budget.Check("core.verify"); err != nil {
			return rep, err
		}
		phase = time.Now()
		verifySpan := flow.Child("phase:verify")
		rep.Verification, err = sim.Verify(rep.Netlist, rep.Spec,
			sim.Options{Constraints: opts.Constraints, Budget: opts.Budget, SG: rep.SG})
		verifySpan.End()
		rep.Timing.Verify = time.Since(phase)
		if err != nil {
			if budgetErr(err) {
				return rep, err
			}
			return nil, fmt.Errorf("core: verification: %w", err)
		}
		if !rep.Verification.OK() {
			return rep, fmt.Errorf("core: implementation fails verification: %v",
				rep.Verification.Violations)
		}
	}
	return rep, nil
}

// budgetErr reports whether err belongs to the budget taxonomy — a
// cancellation, a resource limit, or a recovered worker panic. Such errors
// pass through Synthesize unwrapped so errors.Is/As keep working, with the
// partial Report alongside.
func budgetErr(err error) bool {
	var le budget.ErrLimit
	var ie *budget.ErrInternal
	return errors.Is(err, budget.ErrCanceled) || errors.As(err, &le) || errors.As(err, &ie)
}

// degrade runs the analysis-only fallback ladder after the explicit
// state-graph build tripped a budget limit: symbolic BDD traversal (counts
// states without enumerating them), then stubborn-set reduced exploration
// (deadlock-preserving), then capped explicit exploration — the guaranteed
// floor, whose partial graph is accepted as the degraded result. Each rung
// runs under the same (remaining) budget; cancellation aborts the ladder.
func degrade(g *stg.STG, opts Options, sgErr error, le budget.ErrLimit, sgDur time.Duration, flow *obs.Span) (*Report, error) {
	fb := flow.Child("phase:fallback")
	defer fb.End()
	transitions := fb.Registry().Counter("core.fallback_transitions")

	rep := &Report{Input: g}
	rep.Timing.SG = sgDur
	rep.Attempts = append(rep.Attempts, Attempt{
		Engine: "explicit", Err: sgErr, States: le.Used, Duration: sgDur,
	})

	transitions.Inc()
	fb.Event("degrade", "to", "symbolic")
	start := time.Now()
	sres, err := symbolic.ReachOpts(g.Net, symbolic.Options{Budget: opts.Budget, Obs: fb})
	att := Attempt{Engine: "symbolic", Err: err, Duration: time.Since(start)}
	if sres != nil {
		att.States = int(sres.Count)
		att.Detail = fmt.Sprintf("iters=%d peak-nodes=%d cache-hit=%.0f%%",
			sres.Iterations, sres.PeakNodes, 100*sres.Stats.CacheHitRate())
	}
	rep.Attempts = append(rep.Attempts, att)
	if err == nil {
		return rep, nil
	}
	if errors.Is(err, budget.ErrCanceled) {
		return rep, err
	}

	transitions.Inc()
	fb.Event("degrade", "to", "stubborn")
	start = time.Now()
	rres, err := stubborn.Explore(g.Net, stubborn.Options{Budget: opts.Budget, Obs: fb})
	att = Attempt{Engine: "stubborn", Err: err, Duration: time.Since(start)}
	if rres != nil {
		att.States = rres.States
	}
	rep.Attempts = append(rep.Attempts, att)
	if err == nil {
		return rep, nil
	}
	if errors.Is(err, budget.ErrCanceled) {
		return rep, err
	}

	// The floor rung reruns the explicit engine and accepts its partial
	// graph: a state-limit trip here is the expected outcome, not a failure.
	transitions.Inc()
	fb.Event("degrade", "to", "explicit-capped")
	start = time.Now()
	gph, err := reach.Explore(g.Net, reach.Options{Budget: opts.Budget, Obs: fb})
	att = Attempt{Engine: "explicit-capped", Err: err, Duration: time.Since(start)}
	if gph != nil {
		att.States = gph.NumStates()
	}
	rep.Attempts = append(rep.Attempts, att)
	var fle budget.ErrLimit
	if err != nil && !errors.As(err, &fle) {
		return rep, err
	}
	return rep, nil
}
