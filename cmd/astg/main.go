// Command astg loads a Signal Transition Graph in .g (astg) format and
// reports the Section 2.1 implementability properties: boundedness/safeness,
// consistency, complete state coding, persistency and deadlock freedom.
//
// Usage:
//
//	astg [-sg] [-dot] [-sgdot] [-wave] [-conflicts] file.g
//
// With no file the spec is read from stdin. Usage and flag errors go to
// stderr and exit with status 2; runtime errors exit with status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/encoding"
	"repro/internal/reach"
)

func main() {
	cli.Exit("astg", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("astg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dumpSG := fs.Bool("sg", false, "dump the state graph")
	dumpDOT := fs.Bool("dot", false, "dump the Petri net in DOT format")
	dumpSGDOT := fs.Bool("sgdot", false, "dump the state graph in DOT format")
	wave := fs.Bool("wave", false, "render one cycle as an ASCII timing diagram")
	showConflicts := fs.Bool("conflicts", false, "list CSC conflicts")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	g, err := cli.LoadSTG(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	if *dumpDOT {
		return g.Net.WriteDOT(stdout)
	}
	fmt.Fprintf(stdout, "model %s: %d signals, %d transitions, %d places\n",
		g.Name(), len(g.Signals), len(g.Net.Transitions), len(g.Net.Places))
	fmt.Fprintf(stdout, "structure: marked-graph=%v free-choice=%v choice-places=%d\n",
		g.Net.IsMarkedGraph(), g.Net.IsFreeChoice(), len(g.Net.ChoicePlaces()))

	sg, err := reach.BuildSG(g, reach.Options{})
	if err != nil {
		return fmt.Errorf("state graph: %w", err)
	}
	if *dumpSGDOT {
		return sg.WriteDOT(stdout)
	}
	fmt.Fprintf(stdout, "state graph: %d states, %d arcs, %d distinct codes\n",
		sg.NumStates(), sg.NumArcs(), sg.DistinctCodes())
	fmt.Fprintf(stdout, "properties: %s\n", sg.CheckImplementability())
	if *showConflicts {
		fmt.Fprintln(stdout, encoding.ConflictSummary(sg))
	}
	if *wave {
		fmt.Fprint(stdout, sg.ASCIIWaveform(sg.Cycle()))
	}
	if *dumpSG {
		fmt.Fprint(stdout, sg.Dump())
	}
	return nil
}
