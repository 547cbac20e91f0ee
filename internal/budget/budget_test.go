package budget

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Check("x"); err != nil {
		t.Fatalf("nil budget check: %v", err)
	}
	if got := b.StateLimit(42); got != 42 {
		t.Fatalf("nil budget state limit: %d", got)
	}
	if got := b.EventLimit(7); got != 7 {
		t.Fatalf("nil budget event limit: %d", got)
	}
	if err := b.CheckNodes(1 << 30); err != nil {
		t.Fatalf("nil budget node check: %v", err)
	}
}

func TestCanceledTaxonomy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := &Budget{Ctx: ctx}
	err := b.Check("x")
	if err == nil {
		t.Fatal("canceled context must trip")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled must match context.Canceled, got %v", err)
	}
	if errors.Is(err, Sentinel(States)) {
		t.Fatal("cancellation must not look like a limit")
	}
}

func TestDeadlineIsWallLimit(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := (&Budget{Ctx: ctx}).Check("x")
	var le ErrLimit
	if !errors.As(err, &le) || le.Resource != Wall {
		t.Fatalf("want ErrLimit{Wall}, got %v", err)
	}
	if !errors.Is(err, Sentinel(Wall)) {
		t.Fatalf("want Sentinel(Wall) match, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wall limit must match context.DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline must not look like cancellation")
	}
}

func TestLimitSentinelSymmetry(t *testing.T) {
	err := LimitStates(100, 100)
	if !errors.Is(err, Sentinel(States)) {
		t.Fatal("ErrLimit must match its resource sentinel")
	}
	if !errors.Is(Sentinel(States), err) {
		t.Fatal("sentinel must match a concrete ErrLimit of the same resource")
	}
	if errors.Is(err, Sentinel(Events)) {
		t.Fatal("sentinels of different resources must not match")
	}
	var le ErrLimit
	if !errors.As(err, &le) || le.Limit != 100 || le.Used != 100 {
		t.Fatalf("errors.As payload: %+v", le)
	}
	if want := "states limit exceeded (used 100 of 100)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("message %q lacks %q", err, want)
	}
}

func TestLimitMatchesWrapped(t *testing.T) {
	err := func() error { return LimitEvents(8, 9) }()
	wrapped := errors.Join(errors.New("unfold: context"), err)
	if !errors.Is(wrapped, Sentinel(Events)) {
		t.Fatal("wrapped ErrLimit must still match its sentinel")
	}
}

func TestStateLimitTighterOfBoth(t *testing.T) {
	cases := []struct {
		budget, engine, want int
	}{
		{0, 100, 100},
		{50, 100, 50},
		{200, 100, 100},
		{50, 0, 50},
	}
	for _, c := range cases {
		b := &Budget{MaxStates: c.budget}
		if got := b.StateLimit(c.engine); got != c.want {
			t.Fatalf("StateLimit(budget=%d, engine=%d) = %d, want %d",
				c.budget, c.engine, got, c.want)
		}
	}
}

func TestCheckNodes(t *testing.T) {
	b := &Budget{MaxNodes: 10}
	if err := b.CheckNodes(10); err != nil {
		t.Fatalf("at the ceiling: %v", err)
	}
	err := b.CheckNodes(11)
	var le ErrLimit
	if !errors.As(err, &le) || le.Resource != Nodes || le.Used != 11 {
		t.Fatalf("want ErrLimit{Nodes, 10, 11}, got %v", err)
	}
}

func TestHookFiresBeforeContext(t *testing.T) {
	want := errors.New("injected")
	b := &Budget{Hook: func(site string) error {
		if site == "trip" {
			return want
		}
		return nil
	}}
	if err := b.Check("ok"); err != nil {
		t.Fatalf("hook must pass through: %v", err)
	}
	if err := b.Check("trip"); !errors.Is(err, want) {
		t.Fatalf("hook error must propagate, got %v", err)
	}
}

func TestInternalError(t *testing.T) {
	err := Internal("boom", []byte("stack trace here"))
	var ie *ErrInternal
	if !errors.As(err, &ie) {
		t.Fatalf("want *ErrInternal, got %T", err)
	}
	if ie.Value != "boom" || len(ie.Stack) == 0 {
		t.Fatalf("payload: %+v", ie)
	}
	if !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("message: %q", err)
	}
}

// TestRun covers the shared worker pool: every index runs exactly once,
// with one budget check per claim plus one per worker that finds the
// indexes exhausted; the first task error stops the pool; a panic becomes
// ErrInternal with its stack.
func TestRun(t *testing.T) {
	reg := obs.NewRegistry()
	checks := reg.Counter("checks")
	var seen [10]atomic.Int32
	if err := Run(4, len(seen), nil, "pool", nil, checks, func(_, i int) error {
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, seen[i].Load())
		}
	}
	if got := checks.Value(); got != int64(len(seen)+4) {
		t.Fatalf("checks = %d, want %d", got, len(seen)+4)
	}
	if err := Run(4, 0, nil, "pool", nil, nil, func(_, i int) error {
		t.Fatal("task ran with n = 0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := Run(2, 100, nil, "pool", nil, nil, func(_, i int) error { return boom }); err != boom {
		t.Fatalf("task error: got %v", err)
	}
	err := Run(3, 100, nil, "pool", nil, nil, func(w, i int) error {
		if i == 5 {
			panic("task 5")
		}
		return nil
	})
	var ie *ErrInternal
	if !errors.As(err, &ie) || ie.Value != "task 5" || len(ie.Stack) == 0 {
		t.Fatalf("panic: got %v", err)
	}
}
