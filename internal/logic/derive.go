package logic

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/boolmin"
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Options configure the derivation and synthesis entry points.
type Options struct {
	// Workers sizes the worker pool the per-signal cover minimizations fan
	// out across (0 or 1 = one worker). Functions and netlists are identical
	// at any worker count.
	Workers int
	// Budget adds cancellation between per-signal minimizations; nil is
	// unlimited.
	Budget *budget.Budget
	// Obs is the parent observability span: derivation/synthesis records an
	// "engine:logic" child span, per-worker spans, and the logic.* counters
	// (signals, cover literals, minimizer calls, budget checks) into its
	// registry. nil disables observability.
	Obs *obs.Span
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// extraction is the shared one-pass next-state analysis of a state graph.
// For every state the excited rise/fall signal sets are folded into a
// successor code nextCode = (code | rise) &^ fall; aggregating those by
// unique code answers, for all signals at once, agreement (CSC), implied
// next values, and region classification. The don't-care set — identical
// for all signals of one SG — is enumerated once.
type extraction struct {
	n     int
	names []string
	// Unique codes in first-seen state order: the minterm order of every
	// on/off set, so the minimizer input is deterministic.
	codes  []ts.Code
	andNxt []ts.Code
	orNxt  []ts.Code
	// Per-code region masks: bit s set iff some state with this code has
	// signal s in the region.
	erP, erM, qrP, qrM []ts.Code
	// dc is the shared don't-care set: the unreachable codes, in increasing
	// minterm order, as MinimizeOnOff enumerates them. Nil when n > 14.
	dc []uint64
	// minCalls counts cover minimizations (nil no-op when observability is
	// off).
	minCalls *obs.Counter
}

// extract runs the shared pass. Cost: one sweep of states and arcs plus one
// sweep of the unique codes — independent of the signal count.
func extract(g *ts.SG) *extraction {
	n := len(g.Signals)
	ex := &extraction{n: n, names: make([]string, n)}
	for i, s := range g.Signals {
		ex.names[i] = s.Name
	}
	mask := ts.Code(0)
	if n > 0 {
		mask = ts.Code((uint64(1) << uint(n)) - 1)
		if n >= 64 {
			mask = ^ts.Code(0)
		}
	}
	idx := make(map[ts.Code]int, len(g.States))
	for s := range g.States {
		code := g.States[s].Code
		var rise, fall ts.Code
		for _, a := range g.Out[s] {
			if a.Event.Sig < 0 {
				continue
			}
			bit := ts.Code(1) << uint(a.Event.Sig)
			if a.Event.Dir == stg.Rise {
				rise |= bit
			} else {
				fall |= bit
			}
		}
		next := (code | rise) &^ fall
		quiet := mask &^ (rise | fall)
		i, ok := idx[code]
		if !ok {
			i = len(ex.codes)
			idx[code] = i
			ex.codes = append(ex.codes, code)
			ex.andNxt = append(ex.andNxt, next)
			ex.orNxt = append(ex.orNxt, next)
			ex.erP = append(ex.erP, rise)
			ex.erM = append(ex.erM, fall)
			ex.qrP = append(ex.qrP, code&quiet)
			ex.qrM = append(ex.qrM, quiet&^code)
			continue
		}
		ex.andNxt[i] &= next
		ex.orNxt[i] |= next
		ex.erP[i] |= rise
		ex.erM[i] |= fall
		ex.qrP[i] |= code & quiet
		ex.qrM[i] |= quiet &^ code
	}
	if n <= 14 {
		reach := make([]uint64, len(ex.codes))
		for i, c := range ex.codes {
			reach[i] = uint64(c)
		}
		ex.dc = boolmin.DontCares(reach, nil, n)
	}
	return ex
}

// conflicted reports whether some code implies two next values for sig.
func (ex *extraction) conflicted(sig int) bool {
	bit := ts.Code(1) << uint(sig)
	for i := range ex.codes {
		if (ex.orNxt[i]^ex.andNxt[i])&bit != 0 {
			return true
		}
	}
	return false
}

// onOff splits the unique codes into sig's on and off sets, in first-seen
// order. Must not be called on a conflicted signal.
func (ex *extraction) onOff(sig int) (on, off []uint64) {
	bit := ts.Code(1) << uint(sig)
	for i, c := range ex.codes {
		if ex.andNxt[i]&bit != 0 {
			on = append(on, uint64(c))
		} else {
			off = append(off, uint64(c))
		}
	}
	return on, off
}

// derive produces sig's Function from the shared extraction, with the cover
// minimized through the worker's pooled scratch.
func (ex *extraction) derive(sig int, mz *boolmin.Minimizer) Function {
	ex.minCalls.Inc()
	on, off := ex.onOff(sig)
	f := Function{Signal: sig, Name: ex.names[sig], N: ex.n, Names: ex.names, On: on, Off: off}
	if ex.n <= 14 {
		f.Cover = mz.Minimize(on, ex.dc, ex.n)
	} else {
		f.Cover = deriveCover(on, off, ex.n)
	}
	return f
}

// nonInputs lists the signals synthesis derives functions for.
func nonInputs(signals []stg.Signal) []int {
	var out []int
	for sig, s := range signals {
		if s.Kind == stg.Output || s.Kind == stg.Internal {
			out = append(out, sig)
		}
	}
	return out
}

// DeriveAllOpts is DeriveAll with explicit options: one shared extraction
// pass over the state graph, then the per-signal cover minimizations fan
// out across the worker pool.
func DeriveAllOpts(g *ts.SG, opts Options) ([]Function, error) {
	sp := opts.Obs.Child("engine:logic")
	fs, err := deriveAllOpts(g, opts, sp)
	if sp != nil {
		lits := 0
		h := sp.Registry().Histogram("logic.cover_size")
		for _, f := range fs {
			l := f.Cover.Literals()
			lits += l
			h.Observe(int64(l))
		}
		recordLogic(sp, len(fs), lits, err)
	}
	return fs, err
}

// recordLogic writes the synthesis totals into the engine span's registry
// and closes the span. literals is the summed cover literal count.
func recordLogic(sp *obs.Span, signals, literals int, err error) {
	reg := sp.Registry()
	reg.Counter("logic.signals").Add(int64(signals))
	reg.Counter("logic.cover_literals").Add(int64(literals))
	sp.Attr("signals", strconv.Itoa(signals))
	sp.Attr("cover_literals", strconv.Itoa(literals))
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
}

func deriveAllOpts(g *ts.SG, opts Options, sp *obs.Span) ([]Function, error) {
	sigs := nonInputs(g.Signals)
	ex := extract(g)
	ex.minCalls = sp.Registry().Counter("logic.minimizer_calls")
	for _, sig := range sigs {
		if err := ex.witness(g, sig); err != nil {
			return nil, err
		}
	}
	out := make([]Function, len(sigs))
	if err := runWorkers(opts.workers(), len(sigs), opts.Budget, sp, func(mz *boolmin.Minimizer, i int) {
		out[i] = ex.derive(sigs[i], mz)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SynthesizeOpts is Synthesize with explicit options; see DeriveAllOpts for
// how the work is shared and fanned out.
func SynthesizeOpts(g *ts.SG, style Style, opts Options) (*Netlist, error) {
	sp := opts.Obs.Child("engine:logic")
	nl, err := synthesizeOpts(g, style, opts, sp)
	if sp != nil {
		signals, lits := 0, 0
		if nl != nil {
			signals = len(nl.Gates)
			h := sp.Registry().Histogram("logic.cover_size")
			for _, gt := range nl.Gates {
				l := gt.F.Literals() + gt.Set.Literals() + gt.Reset.Literals()
				lits += l
				h.Observe(int64(l))
			}
		}
		recordLogic(sp, signals, lits, err)
	}
	return nl, err
}

func synthesizeOpts(g *ts.SG, style Style, opts Options, sp *obs.Span) (*Netlist, error) {
	nl := &Netlist{Name: g.Name}
	for _, s := range g.Signals {
		nl.AddSignal(s.Name, s.Kind)
	}
	sigs := nonInputs(g.Signals)
	ex := extract(g)
	ex.minCalls = sp.Registry().Counter("logic.minimizer_calls")
	// CSC conflicts surface before the fan-out, in signal order, so the
	// workers run an error-free pure computation.
	for _, sig := range sigs {
		var err error
		if style == ComplexGate {
			err = ex.witness(g, sig)
		} else {
			err = ex.srConflict(sig)
		}
		if err != nil {
			return nil, err
		}
	}
	gates := make([]Gate, len(sigs))
	if err := runWorkers(opts.workers(), len(sigs), opts.Budget, sp, func(mz *boolmin.Minimizer, i int) {
		gates[i] = ex.synthesize(sigs[i], style, mz)
	}); err != nil {
		return nil, err
	}
	nl.Gates = append(nl.Gates, gates...)
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("logic: synthesized netlist invalid: %w", err)
	}
	return nl, nil
}

// witness reports sig's CSC conflict, if any: the cheap aggregate finds
// whether there is one, and the state scan names the exact witness pair.
func (ex *extraction) witness(g *ts.SG, sig int) error {
	if !ex.conflicted(sig) {
		return nil
	}
	if err := cscWitness(g, sig); err != nil {
		return err
	}
	return fmt.Errorf("logic: internal: aggregate found a conflict for %s the state scan did not", ex.names[sig])
}

// srConflict checks sig's monotonous-cover consistency condition and reports
// the first conflicting code in first-seen order.
func (ex *extraction) srConflict(sig int) error {
	bit := ts.Code(1) << uint(sig)
	for i, c := range ex.codes {
		erPlus := ex.erP[i]&bit != 0
		erMinus := ex.erM[i]&bit != 0
		qrPlus := ex.qrP[i]&bit != 0
		qrMinus := ex.qrM[i]&bit != 0
		if erPlus && (erMinus || qrMinus) || erMinus && qrPlus {
			return &CSCError{Signal: ex.names[sig], Code: c, N: ex.n}
		}
	}
	return nil
}

// synthesize builds sig's gate in the chosen architecture. The caller has
// already ruled out CSC conflicts for sig.
func (ex *extraction) synthesize(sig int, style Style, mz *boolmin.Minimizer) Gate {
	if style == ComplexGate {
		f := ex.derive(sig, mz)
		return Gate{Kind: Comb, Output: sig, F: f.Cover}
	}
	set, reset := ex.setResetCovers(sig, mz)
	kind := CElem
	if style == StandardC {
		kind = RSLatch
	}
	return Gate{Kind: kind, Output: sig, Set: set, Reset: reset}
}

// setResetCovers derives the set and reset networks of sig:
//
//	set:   on = ER(z+) codes, off = ER(z-) ∪ QR(z-) codes, dc = QR(z+) ∪ unreachable
//	reset: on = ER(z-) codes, off = ER(z+) ∪ QR(z+) codes, dc = QR(z-) ∪ unreachable
//
// This is the monotonous-cover discipline: the set network may stay asserted
// through the quiescent-high region but must be off wherever the signal is
// low or falling. Codes are assigned in first-seen order.
func (ex *extraction) setResetCovers(sig int, mz *boolmin.Minimizer) (set, reset boolmin.Cover) {
	bit := ts.Code(1) << uint(sig)
	var setOn, setOff, resetOn, resetOff []uint64
	for i, c := range ex.codes {
		m := uint64(c)
		switch {
		case ex.erP[i]&bit != 0:
			setOn = append(setOn, m)
			resetOff = append(resetOff, m)
		case ex.erM[i]&bit != 0:
			resetOn = append(resetOn, m)
			setOff = append(setOff, m)
		default:
			if ex.qrP[i]&bit != 0 {
				resetOff = append(resetOff, m)
			}
			if ex.qrM[i]&bit != 0 {
				setOff = append(setOff, m)
			}
		}
	}
	ex.minCalls.Add(2)
	set = minimizeOnOffPooled(setOn, setOff, ex.n, mz)
	reset = minimizeOnOffPooled(resetOn, resetOff, ex.n, mz)
	return set, reset
}

// minimizeOnOffPooled is MinimizeOnOff routed through pooled scratch on the
// exact-QMC widths.
func minimizeOnOffPooled(on, off []uint64, n int, mz *boolmin.Minimizer) boolmin.Cover {
	if n <= 14 && len(on) > 0 {
		return mz.Minimize(on, boolmin.DontCares(on, off, n), n)
	}
	return boolmin.MinimizeOnOff(on, off, n)
}

// runWorkers fans f over n indexes across w goroutines, each owning a pooled
// minimizer. Results keyed by index stay deterministic however the indexes
// are claimed. A panicking worker stops the others and the panic surfaces as
// budget.ErrInternal with the captured stack; budget cancellation is polled
// once per index and aborts the same way.
func runWorkers(w, n int, bgt *budget.Budget, sp *obs.Span, f func(mz *boolmin.Minimizer, i int)) error {
	if w > n {
		w = n
	}
	checks := sp.Registry().Counter("logic.budget_checks")
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wsp := sp.ChildLane("worker:"+strconv.Itoa(k+1), k+1)
			defer wsp.End()
			defer func() {
				if r := recover(); r != nil {
					errs[k] = budget.Internal(r, debug.Stack())
					stop.Store(true)
				}
			}()
			var mz boolmin.Minimizer
			for {
				if stop.Load() {
					return
				}
				checks.Inc()
				if err := bgt.Check("logic.worker"); err != nil {
					errs[k] = err
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(&mz, i)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
