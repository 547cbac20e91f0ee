// Command verify performs implementation verification (Section 2.1) and
// temporal-property checking:
//
//	verify -impl circuit.eqn spec.g          gate-level vs specification
//	verify -conform impl.g spec.g            STG vs STG trace conformance
//	verify -impl c.eqn -sep 'D-<LDS-' spec.g SI under relative timing
//	verify -prop props.pr spec.g             named properties over the spec
//
// The gate-level check composes the netlist with the specification mirror
// and reports hazards (semimodularity violations), conformance failures,
// C-element drive fights and deadlocks. The STG check verifies safety and
// receptiveness on the specification alphabet.
//
// The property check evaluates a file of `prop name : formula` lines (see
// internal/prop for the grammar) against the spec's reachable state space:
// -engine picks the explicit or symbolic (BDD) checker, -timeout aborts
// long runs, and violated invariants print a counterexample firing
// sequence with its waveform. -metrics/-trace-json export observability
// artifacts as in the other tools.
//
// Usage and flag errors go to stderr and exit with status 2; runtime errors
// (including failed verification and violated properties) exit with
// status 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/logic"
	"repro/internal/prop"
	"repro/internal/sim"
	"repro/internal/stg"
)

func main() {
	cli.Exit("verify", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type sepFlags []sim.RelativeOrder

func (s *sepFlags) String() string { return fmt.Sprint([]sim.RelativeOrder(*s)) }

func (s *sepFlags) Set(v string) error {
	// "A-<B+" means sep(A-, B+) < 0: A- before B+.
	i := strings.Index(v, "<")
	if i <= 0 || i+1 >= len(v) {
		return fmt.Errorf("want EARLIER<LATER (e.g. 'D-<LDS-'), got %q", v)
	}
	earlier, err := parseEvent(v[:i])
	if err != nil {
		return err
	}
	later, err := parseEvent(v[i+1:])
	if err != nil {
		return err
	}
	*s = append(*s, sim.RelativeOrder{Earlier: earlier, Later: later})
	return nil
}

func parseEvent(s string) (sim.EventRef, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 {
		return sim.EventRef{}, fmt.Errorf("bad event %q", s)
	}
	dir := stg.Rise
	switch s[len(s)-1] {
	case '+':
	case '-':
		dir = stg.Fall
	default:
		return sim.EventRef{}, fmt.Errorf("event %q needs +/- suffix", s)
	}
	return sim.EventRef{Signal: s[:len(s)-1], Dir: dir}, nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	implEqn := fs.String("impl", "", "gate-level implementation (.eqn)")
	conform := fs.String("conform", "", "implementation STG (.g) for trace conformance")
	propFile := fs.String("prop", "", "property file (prop name : formula lines) to check against the spec")
	engine := fs.String("engine", "auto", "property engine: auto, explicit, symbolic")
	timeout := fs.Duration("timeout", 0, "abort property checking after this wall-clock duration (0 = none)")
	var seps sepFlags
	fs.Var(&seps, "sep", "relative timing assumption EARLIER<LATER (repeatable)")
	var ins cli.Instrumentation
	ins.AddFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	spec, err := loadSTG(fs.Arg(0), stdin)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := ins.Start(); err != nil {
		return err
	}
	defer cli.Recover(&err)
	defer ins.FinishTo(stdout, stderr, &err)

	switch {
	case *implEqn != "":
		f, err := os.Open(*implEqn)
		if err != nil {
			return err
		}
		defer f.Close()
		nl, err := logic.ParseEquations(f)
		if err != nil {
			return fmt.Errorf("impl: %w", err)
		}
		res, err := sim.Verify(nl, spec, sim.Options{Constraints: seps, MaxViolations: 10})
		if err != nil {
			return err
		}
		if res.OK() {
			fmt.Fprintf(stdout, "OK: speed-independent and conformant (%d composed states)\n", res.States)
			return nil
		}
		for _, v := range res.Violations {
			fmt.Fprintln(stdout, "violation:", v)
		}
		return fmt.Errorf("verification failed with %d violation(s)", len(res.Violations))
	case *conform != "":
		f, err := os.Open(*conform)
		if err != nil {
			return err
		}
		defer f.Close()
		impl, err := stg.ParseG(f)
		if err != nil {
			return fmt.Errorf("impl: %w", err)
		}
		viol, err := sim.ConformsSTG(impl, spec, 0)
		if err != nil {
			return err
		}
		if len(viol) == 0 {
			fmt.Fprintln(stdout, "OK: implementation STG conforms (safety and receptiveness)")
			return nil
		}
		for _, v := range viol {
			fmt.Fprintln(stdout, "violation:", v)
		}
		return fmt.Errorf("conformance failed with %d violation(s)", len(viol))
	case *propFile != "":
		return runProps(spec, *propFile, *engine, *timeout, &ins, stdout)
	default:
		return cli.Usage{Err: fmt.Errorf("one of -impl, -conform or -prop is required")}
	}
}

// runProps checks a property file against the spec and renders the
// verdicts, with counterexample/witness traces as firing sequences plus
// waveforms. Any violated property makes the command fail (exit status 1).
func runProps(spec *stg.STG, path, engine string, timeout time.Duration, ins *cli.Instrumentation, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	props, err := prop.ParseFile(f)
	if err != nil {
		return err
	}
	if len(props) == 0 {
		return fmt.Errorf("prop: %s declares no properties", path)
	}
	var eng prop.Engine
	switch engine {
	case "auto":
		eng = prop.EngineAuto
	case "explicit", "symbolic":
		eng = prop.Engine(engine)
	default:
		return cli.Usage{Err: fmt.Errorf("unknown engine %q (want auto, explicit or symbolic)", engine)}
	}
	var bgt *budget.Budget
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		bgt = &budget.Budget{Ctx: ctx}
	}
	flow := ins.Registry.Root("flow:verify")
	defer flow.End()
	rep, cerr := prop.Check(spec, props, prop.Options{Engine: eng, Budget: bgt, Obs: flow})
	if rep == nil {
		return cerr
	}
	for _, v := range rep.Verdicts {
		fmt.Fprintf(stdout, "prop %s: %s\n", v.Property.Name, v.Status)
		if v.Trace == nil {
			continue
		}
		label := "counterexample"
		if v.Status == prop.StatusHolds {
			label = "witness"
		}
		ev := v.Trace.Events()
		if ev == "" {
			ev = "<initial state>"
		}
		fmt.Fprintf(stdout, "  %s: %s\n", label, ev)
		for _, line := range strings.Split(strings.TrimRight(v.Trace.Waveform(), "\n"), "\n") {
			fmt.Fprintf(stdout, "    %s\n", line)
		}
	}
	fmt.Fprintf(stdout, "checked %d properties over %s states (%s engine)\n",
		len(rep.Verdicts), rep.States, rep.Engine)
	if cerr != nil {
		return cerr
	}
	if n := rep.Violations(); n > 0 {
		return fmt.Errorf("%d of %d properties violated", n, len(props))
	}
	return nil
}

func loadSTG(path string, stdin io.Reader) (*stg.STG, error) {
	r := stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return stg.ParseG(r)
}
