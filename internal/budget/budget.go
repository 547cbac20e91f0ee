// Package budget is the resilience layer shared by every analysis and
// synthesis engine: one handle carrying cancellation (a context.Context with
// an optional wall-clock deadline) plus resource ceilings (explicit states,
// live BDD nodes, unfolding events), and one typed error taxonomy so that
// callers can classify any abort with errors.Is/errors.As regardless of
// which engine tripped it.
//
// Engines thread a *Budget through their Options and consult it at phase
// boundaries and, amortized (every ~1024 insertions), inside hot loops.
// A nil *Budget is valid everywhere and means "unlimited, never canceled",
// so sequential fast paths pay a single pointer test.
//
// The taxonomy:
//
//   - ErrCanceled — the context was canceled (errors.Is-compatible with
//     context.Canceled);
//   - ErrLimit{Resource, Limit, Used} — a resource ceiling was exceeded;
//     errors.Is matches the per-resource anchors (e.g. reach.ErrStateLimit,
//     stubborn.ErrStateLimit, which are aliases of Sentinel(States)) and,
//     for the Wall resource, context.DeadlineExceeded;
//   - ErrInternal — a worker panic converted into an error carrying the
//     recovered value and stack, instead of crashing the process.
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Resource names one budgeted quantity.
type Resource string

const (
	// Wall is wall-clock time; its ceiling is the context deadline.
	Wall Resource = "wall-clock"
	// States is explicit state-space size (reach, stubborn, sim).
	States Resource = "states"
	// Nodes is live BDD nodes in the symbolic engine.
	Nodes Resource = "bdd-nodes"
	// Events is unfolding prefix events.
	Events Resource = "events"
)

// Budget carries cancellation plus resource ceilings. The zero value and the
// nil pointer are both unlimited. Budgets are immutable after construction
// and safe for concurrent use by worker pools.
type Budget struct {
	// Ctx carries cancellation and the wall-clock deadline (nil means
	// context.Background()).
	Ctx context.Context
	// MaxStates, MaxNodes and MaxEvents are per-resource ceilings
	// (0 = unlimited). They are the only way to cap an engine: each
	// explorer has a default state or event cap and applies whichever
	// bound is tighter.
	MaxStates int
	MaxNodes  int
	MaxEvents int
	// Hook, when non-nil, runs before every Check with the call-site label
	// ("reach.explore", "symbolic.iter", ...). A non-nil return aborts as if
	// the budget tripped; the hook may also panic to exercise worker
	// panic-recovery. It is the deterministic fault-injection seam used by
	// internal/faultinject and must be nil in production use.
	Hook func(site string) error
}

// ErrCanceled is the taxonomy anchor for cancellation. errors.Is matches it
// against both ErrCanceled itself and context.Canceled.
var ErrCanceled error = canceled{}

type canceled struct{}

func (canceled) Error() string { return "budget: canceled" }

func (canceled) Is(target error) bool { return target == context.Canceled }

// ErrLimit reports an exceeded resource ceiling. errors.Is matches the
// per-resource Sentinel anchors and, for Wall, context.DeadlineExceeded;
// errors.As extracts the ceiling and the usage that tripped it.
type ErrLimit struct {
	Resource Resource
	// Limit is the configured ceiling and Used the consumption that tripped
	// it. Both are 0 for Wall (the deadline lives in the context).
	Limit, Used int
}

func (e ErrLimit) Error() string {
	if e.Resource == Wall {
		return "budget: wall-clock deadline exceeded"
	}
	if e.Limit == 0 && e.Used == 0 {
		return fmt.Sprintf("budget: %s limit exceeded", e.Resource)
	}
	return fmt.Sprintf("budget: %s limit exceeded (used %d of %d)", e.Resource, e.Used, e.Limit)
}

func (e ErrLimit) Is(target error) bool {
	if s, ok := target.(limitSentinel); ok {
		return s.r == e.Resource
	}
	return e.Resource == Wall && target == context.DeadlineExceeded
}

// limitSentinel is the errors.Is anchor shared by every ErrLimit of one
// resource; legacy per-engine sentinels alias it.
type limitSentinel struct{ r Resource }

func (s limitSentinel) Error() string { return fmt.Sprintf("budget: %s limit exceeded", s.r) }

func (s limitSentinel) Is(target error) bool {
	if l, ok := target.(ErrLimit); ok {
		return l.Resource == s.r
	}
	return false
}

// Sentinel returns the errors.Is anchor for resource r: every ErrLimit with
// that resource matches it, in either direction. reach.ErrStateLimit and
// stubborn.ErrStateLimit are aliases of Sentinel(States).
func Sentinel(r Resource) error { return limitSentinel{r} }

// ErrInternal is a recovered worker panic: the pipeline reports it as an
// error instead of crashing the process. Use Internal to build one and
// errors.As(*ErrInternal) to inspect the payload.
type ErrInternal struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *ErrInternal) Error() string {
	return fmt.Sprintf("internal error (worker panic): %v", e.Value)
}

// Internal wraps a recovered panic value and its stack as an *ErrInternal.
func Internal(value any, stack []byte) error {
	return &ErrInternal{Value: value, Stack: stack}
}

// Run runs task(w, i) for every i < n across min(workers, n) goroutines
// (at least one), w being the worker's index, each in a "worker:<w+1>" lane
// span under sp. Results keyed by i stay deterministic however the indexes
// are claimed. Every claim polls b at site and adds one to checks. The pool
// is panic-safe: a panicking task stops the others and surfaces as
// ErrInternal with the captured stack; a task error or a budget trip stops
// them the same way. Run returns the error of the lowest-numbered failing
// worker.
func Run(workers, n int, b *Budget, site string, sp *obs.Span, checks *obs.Counter, task func(w, i int) error) error {
	if n == 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsp := sp.ChildLane("worker:"+strconv.Itoa(w+1), w+1)
			defer wsp.End()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = Internal(r, debug.Stack())
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				checks.Inc()
				if err := b.Check(site); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := task(w, i); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ctx returns the effective context.
func (b *Budget) ctx() context.Context {
	if b == nil || b.Ctx == nil {
		return context.Background()
	}
	return b.Ctx
}

// Check polls cancellation (and the fault-injection hook) at the named site.
// It returns nil, ErrCanceled, or ErrLimit{Wall}. Amortize calls in hot
// loops — one check per ~1024 units of work keeps the overhead unmeasurable.
func (b *Budget) Check(site string) error {
	if b == nil {
		return nil
	}
	if b.Hook != nil {
		if err := b.Hook(site); err != nil {
			return err
		}
	}
	if b.Ctx != nil {
		select {
		case <-b.Ctx.Done():
			if errors.Is(b.Ctx.Err(), context.DeadlineExceeded) {
				return ErrLimit{Resource: Wall}
			}
			return ErrCanceled
		default:
		}
	}
	return nil
}

// StateLimit returns the effective state ceiling: the tighter of the
// engine's default cap and the budget's MaxStates (0 = no budget ceiling).
func (b *Budget) StateLimit(engineCap int) int {
	if b == nil || b.MaxStates <= 0 {
		return engineCap
	}
	if engineCap > 0 && engineCap < b.MaxStates {
		return engineCap
	}
	return b.MaxStates
}

// CheckNodes enforces the live-BDD-node ceiling.
func (b *Budget) CheckNodes(used int) error {
	if b == nil || b.MaxNodes <= 0 || used <= b.MaxNodes {
		return nil
	}
	return ErrLimit{Resource: Nodes, Limit: b.MaxNodes, Used: used}
}

// EventLimit returns the effective unfolding event ceiling, like StateLimit.
func (b *Budget) EventLimit(engineCap int) int {
	if b == nil || b.MaxEvents <= 0 {
		return engineCap
	}
	if engineCap > 0 && engineCap < b.MaxEvents {
		return engineCap
	}
	return b.MaxEvents
}

// LimitStates builds the canonical states-ceiling error.
func LimitStates(limit, used int) error {
	return ErrLimit{Resource: States, Limit: limit, Used: used}
}

// LimitEvents builds the canonical events-ceiling error.
func LimitEvents(limit, used int) error {
	return ErrLimit{Resource: Events, Limit: limit, Used: used}
}

// CheckEvery is the recommended amortization stride for per-insertion
// budget checks in hot exploration loops.
const CheckEvery = 1024

// Hooked reports whether a fault-injection hook is installed. Amortized
// loops hoist this flag and check every iteration when it is set, so
// injection schedules are exact; production budgets have no hook and keep
// the 1-in-CheckEvery stride.
func (b *Budget) Hooked() bool { return b != nil && b.Hook != nil }
