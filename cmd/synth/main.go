// Command synth runs the full synthesis flow on an STG specification:
// analysis, state encoding, next-state function derivation, gate synthesis,
// optional decomposition to a fan-in budget, and verification against the
// specification mirror.
//
// Usage:
//
//	synth [-style complex|gc|rs] [-maxfanin N] [-method insert|reduce]
//	      [-workers N] [-timeout D] [-maxstates N] [-maxnodes N] [-fallback]
//	      [-metrics FILE] [-trace-json FILE] [-cpuprofile FILE] [-memprofile FILE]
//	      [-quiet] [-spec out.g] file.g
//
// With -spec the final specification (including inserted state signals) is
// written in .g format to the given file ("-" for stdout).
//
// -timeout, -maxstates and -maxnodes bound the run by wall clock, explored
// states and live BDD nodes; the spend against configured ceilings is
// reported on a "budget:" line. On a budget trip the command prints whatever
// partial analysis it reached and exits 1 — unless -fallback is set, in
// which case synthesis degrades through the engine ladder (symbolic, then
// stubborn-set, then capped explicit analysis) and reports the analysis
// trace instead of a netlist.
//
// -metrics and -trace-json export the run's engine counters and span tree
// as a JSON snapshot and as Chrome trace_event JSON ("-" for stdout);
// -cpuprofile and -memprofile write pprof profiles. All artifacts are
// written even when the run aborts.
//
// Usage and flag errors go to stderr and exit with status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/logic"
)

func main() {
	cli.Exit("synth", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	// Usage and flag errors are diagnostics: they belong on stderr, not
	// mixed into the tool's parseable output.
	fs.SetOutput(stderr)
	styleName := fs.String("style", "complex", "gate architecture: complex, gc, rs")
	maxFanIn := fs.Int("maxfanin", 0, "decompose to this gate fan-in (0 = no mapping)")
	method := fs.String("method", "insert", "CSC method: insert (state signals) or reduce (concurrency)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for encoding search and logic derivation")
	quiet := fs.Bool("quiet", false, "print only the equations")
	specOut := fs.String("spec", "", "write the final specification (.g) to this file, '-' for stdout")
	eqnOut := fs.String("out", "", "write the netlist (.eqn, verify-compatible) to this file, '-' for stdout")
	timeout := fs.Duration("timeout", 0, "abort the flow after this wall-clock duration (0 = none)")
	maxStates := fs.Int("maxstates", 0, "abort explicit analysis past this many states (0 = none)")
	maxNodes := fs.Int("maxnodes", 0, "abort symbolic analysis past this many live BDD nodes (0 = none)")
	fallback := fs.Bool("fallback", false, "degrade to cheaper analysis engines instead of failing on a budget trip")
	var ins cli.Instrumentation
	ins.AddFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	var style logic.Style
	switch *styleName {
	case "complex":
		style = logic.ComplexGate
	case "gc":
		style = logic.GeneralizedC
	case "rs":
		style = logic.StandardC
	default:
		return fmt.Errorf("unknown style %q", *styleName)
	}
	if *method != "insert" && *method != "reduce" {
		return fmt.Errorf("unknown method %q", *method)
	}

	g, err := cli.LoadSTG(fs.Arg(0), stdin)
	if err != nil {
		return err
	}

	bgt := &budget.Budget{MaxStates: *maxStates, MaxNodes: *maxNodes}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		bgt.Ctx = ctx
	}
	if err := ins.Start(); err != nil {
		return err
	}
	// Export on every exit path — budget aborts AND panics: Recover runs
	// after the deferred export (defers are LIFO), so artifacts flush while
	// the panic unwinds and the panic then surfaces as a typed runtime error
	// (exit 1) instead of crashing the process. Export failures fold into
	// the exit code, or onto stderr when the run already failed.
	defer cli.Recover(&err)
	defer ins.FinishTo(stdout, stderr, &err)

	rep, err := core.Synthesize(g, core.Options{
		Style: style, MaxFanIn: *maxFanIn, Reduce: *method == "reduce", Workers: *workers,
		Budget: bgt, Fallback: *fallback, Obs: ins.Registry,
	})
	if err != nil {
		// A budget trip still carries the partial analysis; show it so the
		// nonzero exit comes with the stats reached before the abort.
		if rep != nil {
			fmt.Fprint(stdout, rep.Summary())
			printBudget(stdout, bgt, err, rep)
		}
		return err
	}
	if rep.Netlist == nil {
		// Degraded run: analysis completed on a cheaper engine, nothing to
		// synthesize. -spec/-out have no artifact to write.
		fmt.Fprint(stdout, rep.Summary())
		printBudget(stdout, bgt, nil, rep)
		return nil
	}
	if *specOut != "" {
		w := stdout
		if *specOut != "-" {
			f, err := os.Create(*specOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rep.Spec.WriteG(w); err != nil {
			return err
		}
	}
	if *eqnOut != "" {
		w := stdout
		if *eqnOut != "-" {
			f, err := os.Create(*eqnOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rep.Netlist.WriteEquations(w); err != nil {
			return err
		}
	}
	if *quiet {
		fmt.Fprintln(stdout, rep.Equations())
		return nil
	}
	fmt.Fprint(stdout, rep.Summary())
	return nil
}

// printBudget reports budget spend — states and BDD nodes used against their
// ceilings — so budget behaviour is visible without -metrics. Silent when no
// ceiling was configured.
func printBudget(w io.Writer, bgt *budget.Budget, runErr error, rep *core.Report) {
	if bgt == nil || (bgt.MaxStates <= 0 && bgt.MaxNodes <= 0) {
		return
	}
	states, nodes := 0, 0
	if rep != nil {
		if rep.SG != nil {
			states = rep.SG.NumStates()
		}
		// Only explicit-engine attempts spend the states budget; symbolic
		// attempts count reachable states without enumerating them.
		for _, a := range rep.Attempts {
			if strings.HasPrefix(a.Engine, "explicit") && a.States > states {
				states = a.States
			}
		}
	}
	var le budget.ErrLimit
	if errors.As(runErr, &le) {
		switch le.Resource {
		case budget.States:
			if le.Used > states {
				states = le.Used
			}
		case budget.Nodes:
			nodes = le.Used
		}
	}
	fmt.Fprintf(w, "budget:        states %s, nodes %s\n",
		spend(states, bgt.MaxStates), spend(nodes, bgt.MaxNodes))
}

// spend renders used/ceiling, with "unlimited" for an absent ceiling.
func spend(used, limit int) string {
	if limit <= 0 {
		return fmt.Sprintf("%d/unlimited", used)
	}
	return fmt.Sprintf("%d/%d", used, limit)
}
