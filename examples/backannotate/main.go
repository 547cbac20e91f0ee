// Back-annotation (Section 4, Figure 10): at any step of the design process
// a Petri net corresponding to the current transition system can be
// extracted and returned to the designer.
//
// This example closes the full loop:
//
//	spec STG ──synthesize──▶ circuit ──explore──▶ implementation SG
//	    ▲                                             │
//	    └───────conformance◀── extracted STG ◀──regions┘
//
// The extracted STG (including the internal state signal) is printed in .g
// format, its state graph is checked isomorphic to the circuit's, and trace
// conformance against the ORIGINAL interface is verified formally.
//
// Run with: go run ./examples/backannotate
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/encoding"
	"repro/internal/logic"
	"repro/internal/reach"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/ts"
	"repro/internal/vme"
)

func main() {
	g := vme.ReadSTG()
	spec, err := encoding.InsertSignal(g, "csc0",
		g.Net.TransitionIndex("LDS+"), g.Net.TransitionIndex("D-"))
	if err != nil {
		log.Fatal(err)
	}
	sg, err := reach.BuildSG(spec, reach.Options{})
	if err != nil {
		log.Fatal(err)
	}
	nl, err := logic.Synthesize(sg, logic.ComplexGate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== synthesized circuit ==")
	fmt.Println(nl.Equations())

	implSG, err := sim.StateGraph(nl, spec, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncircuit × environment: %d composed states\n", implSG.NumStates())

	back, err := regions.Synthesize(implSG)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== back-annotated STG (Figure 10a) ==")
	if err := back.WriteG(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The extracted net regenerates the implementation behaviour exactly.
	sg2, err := reach.BuildSG(back, reach.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ts.Isomorphic(implSG, sg2); err != nil {
		log.Fatalf("round trip broken: %v", err)
	}
	fmt.Println("\nround trip: extracted STG's state graph is isomorphic to the circuit's")

	// ... and conforms to the original interface.
	viol, err := sim.ConformsSTG(back, g)
	if err != nil {
		log.Fatal(err)
	}
	if len(viol) != 0 {
		log.Fatalf("conformance: %v", viol)
	}
	fmt.Println("conformance: extracted STG conforms to the original VME interface (safety + receptiveness)")
}
