// Command tse computes time separations of events (Section 5) on a
// marked-graph STG with min/max transition delays, plus its min/max cycle
// time.
//
// Usage:
//
//	tse -from 'LDTACK-@2' -to 'DSr+@3' [-cycles 4] [-delay 'DSr+=50:60'] ... file.g
//
// Unlisted transitions default to delay [1,1]. Usage and flag errors go to
// stderr and exit with status 2; runtime errors exit with status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/stg"
	"repro/internal/timing"
)

type delayFlags map[string]timing.Delay

func (d delayFlags) String() string { return fmt.Sprint(map[string]timing.Delay(d)) }

func (d delayFlags) Set(v string) error {
	eq := strings.SplitN(v, "=", 2)
	if len(eq) != 2 {
		return fmt.Errorf("want NAME=min:max, got %q", v)
	}
	mm := strings.SplitN(eq[1], ":", 2)
	lo, err := strconv.ParseInt(mm[0], 10, 64)
	if err != nil {
		return err
	}
	hi := lo
	if len(mm) == 2 {
		hi, err = strconv.ParseInt(mm[1], 10, 64)
		if err != nil {
			return err
		}
	}
	d[eq[0]] = timing.Delay{Min: lo, Max: hi}
	return nil
}

func main() {
	cli.Exit("tse", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	delays := delayFlags{}
	from := fs.String("from", "", "occurrence NAME@CYCLE")
	to := fs.String("to", "", "occurrence NAME@CYCLE")
	cycles := fs.Int("cycles", 4, "unrolling depth")
	fs.Var(delays, "delay", "NAME=min:max (repeatable)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	g, err := cli.LoadSTG(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	ds := make([]timing.Delay, len(g.Net.Transitions))
	for i := range ds {
		ds[i] = timing.Fixed(1)
	}
	for name, d := range delays {
		t := g.Net.TransitionIndex(name)
		if t < 0 {
			return fmt.Errorf("unknown transition %q", name)
		}
		ds[t] = d
	}
	spec := timing.Spec{G: g, Delays: ds}

	ctMax, err := timing.CycleTime(spec, true)
	if err != nil {
		return err
	}
	ctMin, _ := timing.CycleTime(spec, false)
	fmt.Fprintf(stdout, "cycle time: [%.1f, %.1f]\n", ctMin, ctMax)

	if *from == "" || *to == "" {
		return nil
	}
	fo, err := parseOcc(g, *from)
	if err != nil {
		return err
	}
	too, err := parseOcc(g, *to)
	if err != nil {
		return err
	}
	sep, err := timing.MaxSeparation(spec, fo, too, *cycles, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "max sep(%s, %s) = %d", *from, *to, sep)
	if sep < 0 {
		fmt.Fprintf(stdout, "   (constraint sep<0 holds)")
	}
	fmt.Fprintln(stdout)
	return nil
}

func parseOcc(g *stg.STG, s string) (timing.Occurrence, error) {
	parts := strings.SplitN(s, "@", 2)
	t := g.Net.TransitionIndex(parts[0])
	if t < 0 {
		return timing.Occurrence{}, fmt.Errorf("unknown transition %q", parts[0])
	}
	k := 0
	if len(parts) == 2 {
		var err error
		k, err = strconv.Atoi(parts[1])
		if err != nil {
			return timing.Occurrence{}, err
		}
	}
	return timing.Occurrence{Transition: t, Cycle: k}, nil
}
