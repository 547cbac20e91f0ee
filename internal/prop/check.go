package prop

import (
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/stg"
)

// Status is a per-property verdict.
type Status int

const (
	// StatusUnknown marks a property the checker did not finish — the
	// verdict after a budget trip (cancellation, state/node ceiling).
	StatusUnknown Status = iota
	StatusHolds
	StatusViolated
)

func (s Status) String() string {
	switch s {
	case StatusHolds:
		return "holds"
	case StatusViolated:
		return "VIOLATED"
	default:
		return "unknown"
	}
}

// Verdict is the outcome for one property.
type Verdict struct {
	Property Property
	Status   Status
	// Trace is a counterexample (a violated invariant/AG: path to an
	// offending state) or a witness (a holding top-level EF: path to a
	// satisfying state). Nil when neither applies — e.g. a holding
	// invariant, or a violated EF, which has no finite witness.
	Trace *Trace
}

// Report is the outcome of a Check run.
type Report struct {
	// Engine is the engine that produced the verdicts: "explicit" or
	// "symbolic".
	Engine string
	// States is the number of reachable states examined.
	States *big.Int
	// Verdicts are per-property outcomes, in property order.
	Verdicts []Verdict
}

// Violations counts violated properties.
func (r *Report) Violations() int {
	n := 0
	for _, v := range r.Verdicts {
		if v.Status == StatusViolated {
			n++
		}
	}
	return n
}

// Engine selects the evaluation strategy.
type Engine string

const (
	// EngineAuto picks explicit for specs within the 64-signal code
	// limit, symbolic beyond it.
	EngineAuto Engine = ""
	// EngineExplicit enumerates the state graph (reach.BuildSG) and
	// evaluates formulas as bit vectors over its states.
	EngineExplicit Engine = "explicit"
	// EngineSymbolic runs BDD fixpoints on the place-level encoding of
	// internal/symbolic; the state graph is never enumerated.
	EngineSymbolic Engine = "symbolic"
)

// Options tune a Check run.
type Options struct {
	// Engine selects explicit or symbolic evaluation; EngineAuto decides
	// from the spec size.
	Engine Engine
	// Budget adds cancellation and state/node ceilings. On a trip the
	// partial Report (finished verdicts kept, the rest StatusUnknown) is
	// returned alongside the typed budget error.
	Budget *budget.Budget
	// Obs is the parent observability span: the run records an
	// engine:prop-explicit or engine:prop-symbolic child span with the
	// prop.* counters. nil disables observability.
	Obs *obs.Span
}

// Check evaluates the properties against the STG's reachable state space.
// Formulas without temporal operators are implicit invariants (AG f);
// formulas with them are CTL, evaluated at the initial state. Violated
// invariants carry a counterexample trace, holding top-level EFs a witness
// trace.
//
// On a budget trip Check returns the partial Report together with the
// typed error from the budget taxonomy, so callers can distinguish "holds"
// from "ran out of budget".
func Check(g *stg.STG, props []Property, opts Options) (*Report, error) {
	if err := Bind(g, props); err != nil {
		return nil, err
	}
	eng := opts.Engine
	if eng == EngineAuto {
		if len(g.Signals) <= 64 {
			eng = EngineExplicit
		} else {
			eng = EngineSymbolic
		}
	}
	switch eng {
	case EngineExplicit:
		sp := opts.Obs.Child("engine:prop-explicit")
		rep, err := checkExplicit(g, props, opts, sp)
		record(sp, rep, err)
		return rep, err
	case EngineSymbolic:
		sp := opts.Obs.Child("engine:prop-symbolic")
		rep, err := checkSymbolic(g, props, opts, sp)
		record(sp, rep, err)
		return rep, err
	default:
		return nil, fmt.Errorf("prop: unknown engine %q", opts.Engine)
	}
}

// record writes run totals into the engine span and closes it.
func record(sp *obs.Span, rep *Report, err error) {
	if sp == nil {
		return
	}
	if rep != nil {
		reg := sp.Registry()
		reg.Counter("prop.properties").Add(int64(len(rep.Verdicts)))
		reg.Counter("prop.violations").Add(int64(rep.Violations()))
		if rep.States != nil {
			sp.Attr("states", rep.States.String())
		}
		sp.Attr("violations", strconv.Itoa(rep.Violations()))
	}
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
}

// Bind validates every atom against the STG: signal atoms must name
// signals, marked() atoms places. Check runs it implicitly; cmd/verify and
// the service call it early for fail-fast diagnostics.
func Bind(g *stg.STG, props []Property) error {
	places := map[string]bool{}
	for _, p := range g.Net.Places {
		places[p.Name] = true
	}
	for _, pr := range props {
		if err := bindFormula(g, places, pr.F); err != nil {
			return fmt.Errorf("prop: property %q: %w", pr.Name, err)
		}
	}
	return nil
}

func bindFormula(g *stg.STG, places map[string]bool, f *Formula) error {
	if f == nil {
		return nil
	}
	switch f.Op {
	case OpSignal, OpExcited, OpEnabled:
		if g.SignalIndex(f.Name) < 0 {
			return fmt.Errorf("unknown signal %q", f.Name)
		}
	case OpPersistent:
		if f.Name != "" && g.SignalIndex(f.Name) < 0 {
			return fmt.Errorf("unknown signal %q", f.Name)
		}
	case OpMarked:
		if !places[f.Name] {
			return fmt.Errorf("unknown place %q", f.Name)
		}
	}
	if err := bindFormula(g, places, f.L); err != nil {
		return err
	}
	return bindFormula(g, places, f.R)
}

// unknownReport builds an all-unknown Report for budget trips that hit
// before any property was evaluated.
func unknownReport(engine string, props []Property) *Report {
	rep := &Report{Engine: engine, Verdicts: make([]Verdict, len(props))}
	for i, p := range props {
		rep.Verdicts[i] = Verdict{Property: p, Status: StatusUnknown}
	}
	return rep
}
