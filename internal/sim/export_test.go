package sim

import "repro/internal/logic"

// ExcitedAfter exposes the verifier's fan rule on nl to the external tests:
// the excited gates at nv, reached by a move of netlist signal j from a
// vector whose excited gates are exc.
func ExcitedAfter(nl *logic.Netlist) func(exc uint64, j int, nv uint64) uint64 {
	ver := &verifier{nl: nl}
	ver.setFan()
	return ver.excitedAfter
}
