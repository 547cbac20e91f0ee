// Command reach compares the state-space engines of Section 2.2 on one
// specification: explicit enumeration, BDD-based symbolic traversal,
// McMillan unfolding prefix, and stubborn-set partial-order reduction.
//
// Usage:
//
//	reach [-engine all|explicit|symbolic|unfold|stubborn] [-sift]
//	      [-timeout D] [-metrics FILE] [-trace-json FILE]
//	      [-cpuprofile FILE] [-memprofile FILE] file.g
//
// -sift enables dynamic variable reordering (Rudell sifting) in the
// symbolic engine. The symbolic row is followed by a kernel stats line:
// live/peak node counts, op-cache hit rate, garbage collections and
// reorder passes.
//
// -timeout D aborts the analysis after the given wall-clock duration
// (e.g. 500ms, 10s). Engines report the partial statistics they reached
// before the abort, and the command exits nonzero.
//
// -metrics and -trace-json export per-engine counters and the span tree
// as a JSON snapshot and as Chrome trace_event JSON ("-" for stdout);
// -cpuprofile and -memprofile write pprof profiles.
//
// Usage and flag errors go to stderr and exit with status 2; runtime and
// budget-abort errors exit with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/reach"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
)

func main() {
	cli.Exit("reach", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("reach", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "all", "engine: all, explicit, symbolic, unfold, stubborn")
	sift := fs.Bool("sift", false, "dynamic variable reordering (Rudell sifting) in the symbolic engine")
	timeout := fs.Duration("timeout", 0, "abort the analysis after this wall-clock duration (0 = none)")
	var ins cli.Instrumentation
	ins.AddFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	g, err := cli.LoadSTG(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	n := g.Net
	var bgt *budget.Budget
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		bgt = &budget.Budget{Ctx: ctx}
	}
	if err := ins.Start(); err != nil {
		return err
	}
	// Export on every exit path — budget aborts AND panics; see cmd/synth
	// for the defer-ordering contract with cli.Recover.
	defer cli.Recover(&err)
	defer ins.FinishTo(stdout, stderr, &err)
	// Every engine parents under one flow:reach → phase:analysis chain so
	// exported traces validate against the span hierarchy.
	flow := ins.Registry.Root("flow:reach")
	phase := flow.Child("phase:analysis")
	defer func() {
		phase.End()
		flow.End()
	}()

	// Stats table: engine, result, wall time.
	// A budget abort prints the partial statistics the engine reached and
	// makes the whole command fail; other engine errors are reported inline
	// without failing the comparison.
	var abort error
	run := func(name string, f func() (string, error)) {
		if *engine != "all" && *engine != name {
			return
		}
		start := time.Now()
		out, err := f()
		elapsed := time.Since(start)
		if err != nil {
			if out != "" {
				fmt.Fprintf(stdout, "%-12s %-55s aborted: %v\n", name, out, err)
			} else {
				fmt.Fprintf(stdout, "%-12s error: %v\n", name, err)
			}
			if abort == nil && budgetAbort(err) {
				abort = err
			}
			return
		}
		fmt.Fprintf(stdout, "%-12s %-55s %v\n", name, out, elapsed.Round(time.Microsecond))
	}

	run("explicit", func() (string, error) {
		rg, err := reach.Explore(n, reach.Options{Budget: bgt, Obs: phase})
		if err != nil {
			return partialGraph(rg), err
		}
		return fmt.Sprintf("%d states, %d arcs, %d deadlocks",
			rg.NumStates(), rg.NumArcs(), len(rg.Deadlocks())), nil
	})
	var symStats *bdd.Stats
	run("symbolic", func() (string, error) {
		res, err := symbolic.ReachOpts(n, symbolic.Options{Sift: *sift, Budget: bgt, Obs: phase})
		if err != nil {
			if res != nil {
				return fmt.Sprintf("partial: %.0f states after %d iterations",
					res.Count, res.Iterations), err
			}
			return "", err
		}
		_, dead := symbolic.DeadStates(n, res)
		s := res.M.Stats() // include DeadStates work in the snapshot
		symStats = &s
		return fmt.Sprintf("%s states, %d BDD nodes, %d iterations, %.0f deadlocks",
			res.CountExact, res.PeakNodes, res.Iterations, dead), nil
	})
	if symStats != nil {
		fmt.Fprintf(stdout, "%-12s live=%d peak=%d cache-hit=%.1f%% gc=%d freed=%d reorders=%d swaps=%d\n",
			"  bdd", symStats.Live, symStats.PeakLive, 100*symStats.CacheHitRate(),
			symStats.GCRuns, symStats.GCFreed, symStats.Reorders, symStats.Swaps)
	}
	run("unfold", func() (string, error) {
		u, err := unfold.Build(n, unfold.Options{Budget: bgt, Obs: phase})
		if err != nil {
			if u != nil {
				c, e, k := u.Stats()
				return fmt.Sprintf("partial: %d conditions, %d events, %d cutoffs", c, e, k), err
			}
			return "", err
		}
		c, e, k := u.Stats()
		return fmt.Sprintf("%d conditions, %d events, %d cutoffs", c, e, k), nil
	})
	run("stubborn", func() (string, error) {
		res, err := stubborn.Explore(n, stubborn.Options{Budget: bgt, Obs: phase})
		if err != nil {
			if res != nil {
				return fmt.Sprintf("partial: %d states, %d arcs", res.States, res.Arcs), err
			}
			return "", err
		}
		return fmt.Sprintf("%d states, %d arcs, %d deadlocks",
			res.States, res.Arcs, len(res.Deadlocks)), nil
	})
	if abort != nil {
		return fmt.Errorf("analysis aborted: %w", abort)
	}
	return nil
}

func partialGraph(rg *reach.Graph) string {
	if rg == nil {
		return ""
	}
	return fmt.Sprintf("partial: %d states, %d arcs", rg.NumStates(), rg.NumArcs())
}

// budgetAbort reports whether err came from the budget taxonomy (limit or
// cancellation) rather than from the model itself.
func budgetAbort(err error) bool {
	var le budget.ErrLimit
	return errors.Is(err, budget.ErrCanceled) || errors.As(err, &le)
}
