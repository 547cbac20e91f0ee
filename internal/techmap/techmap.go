// Package techmap implements hazard-aware logic decomposition and technology
// mapping (Section 3.4, reference [5]): breaking complex gates into a
// limited-fan-in library without introducing hazards. The algorithm:
//
//  1. pick a gate whose fan-in exceeds the limit;
//  2. extract a decomposition candidate (an algebraic kernel, or a cube/OR
//     split when no kernel exists) into a new internal wire;
//  3. resubstitute the new wire into other gates where it is functionally
//     equivalent on the reachable care set — the "multiple acknowledgment"
//     that makes decompositions like Figure 9a hazard-free;
//  4. verify speed-independence of the trial netlist against the spec; on
//     failure try the next candidate.
//
// Candidates that survive verification are committed; the loop repeats until
// every gate fits the fan-in budget.
package techmap

import (
	"fmt"
	"sort"

	"repro/internal/boolmin"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/stg"
)

// Options configure mapping.
type Options struct {
	// MaxFanIn is the gate input budget (e.g. 2 for Figure 9).
	MaxFanIn int
	// Sim configures every trial verification. Its SG, the spec's state
	// graph when the caller has it, and its Budget also serve the care-set
	// exploration.
	Sim sim.Options
}

// maxNewSignals bounds decomposition depth: the wires Map may add.
const maxNewSignals = 16

// Map decomposes nl (complex-gate style, combinational gates) into gates of
// at most MaxFanIn inputs, preserving speed-independence against spec. The
// input netlist must itself verify.
func Map(nl *logic.Netlist, spec *stg.STG, opts Options) (*logic.Netlist, error) {
	if opts.MaxFanIn < 2 {
		return nil, fmt.Errorf("techmap: fan-in limit must be at least 2")
	}
	res, err := sim.Verify(nl, spec, opts.Sim)
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, fmt.Errorf("techmap: input netlist is not SI: %v", res.Violations)
	}
	cur := cloneNetlist(nl)
	for round := 0; round < maxNewSignals; round++ {
		gi := worstGate(cur, opts.MaxFanIn)
		if gi < 0 {
			return cur, nil // everything fits
		}
		next, err := decomposeOnce(cur, gi, spec, opts, round)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	if worstGate(cur, opts.MaxFanIn) >= 0 {
		return nil, fmt.Errorf("techmap: fan-in target not reached within %d new signals", maxNewSignals)
	}
	return cur, nil
}

// worstGate returns the index of the gate with the largest over-budget
// network fan-in, or -1. Latch set/reset networks count separately (they
// are distinct transistor stacks).
func worstGate(nl *logic.Netlist, max int) int {
	worst, worstFan := -1, max
	for i := range nl.Gates {
		fan := 0
		for nw := 0; nw < 3; nw++ {
			if n := len(network(&nl.Gates[i], nw).Support()); n > fan {
				fan = n
			}
		}
		if fan > worstFan {
			worst, worstFan = i, fan
		}
	}
	return worst
}

func gateSupport(g logic.Gate) []int {
	sup := map[int]bool{}
	for _, cv := range []boolmin.Cover{g.F, g.Set, g.Reset} {
		for _, v := range cv.Support() {
			sup[v] = true
		}
	}
	var out []int
	for v := range sup {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// network selects one cover of a gate: 0 = F, 1 = Set, 2 = Reset.
func network(g *logic.Gate, which int) *boolmin.Cover {
	switch which {
	case 1:
		return &g.Set
	case 2:
		return &g.Reset
	default:
		return &g.F
	}
}

// widestNetwork returns the index of the gate's widest-support network.
func widestNetwork(g *logic.Gate) int {
	best, bestN := 0, len(g.F.Support())
	if n := len(g.Set.Support()); n > bestN {
		best, bestN = 1, n
	}
	if n := len(g.Reset.Support()); n > bestN {
		best = 2
	}
	return best
}

// decomposeOnce extracts one new wire for gate gi, trying candidates until
// one verifies. For latch gates (gC / RS) the widest of the set/reset
// networks is decomposed.
func decomposeOnce(nl *logic.Netlist, gi int, spec *stg.STG, opts Options, round int) (*logic.Netlist, error) {
	g := nl.Gates[gi]
	which := 0
	if g.Kind != logic.Comb {
		which = widestNetwork(&g)
	}
	target := *network(&g, which)
	cands := candidates(target, opts.MaxFanIn)
	if len(cands) == 0 {
		return nil, fmt.Errorf("techmap: no decomposition candidate for %s = %s",
			nl.Signals[g.Output], target.Expr(nl.Signals))
	}
	care, err := reachableCare(nl, spec, opts.Sim)
	if err != nil {
		return nil, err
	}
	var lastViol string
	wName := fmt.Sprintf("map%d", round)

	// Latch gates first try the classic tree decomposition: extract a
	// 2-input C-element for a variable pair appearing positively in the set
	// network and negatively in the reset network. The sub-element is
	// stateful, so both edges of the extracted pair are acknowledged by
	// construction.
	if g.Kind == logic.CElem || g.Kind == logic.RSLatch {
		for _, pair := range cPairCandidates(&g) {
			trial, ok := applyCPair(nl, gi, pair[0], pair[1], wName, g.Kind)
			if !ok {
				continue
			}
			res, err := sim.Verify(trial, spec, opts.Sim)
			if err != nil {
				return nil, err
			}
			if res.OK() {
				return trial, nil
			}
			if len(res.Violations) > 0 {
				lastViol = res.Violations[0].String()
			}
		}
	}

	for _, div := range cands {
		trial, ok := applyCandidate(nl, gi, which, div, wName, care)
		if !ok {
			continue
		}
		for _, t2 := range withAckVariants(trial, wName) {
			res, err := sim.Verify(t2, spec, opts.Sim)
			if err != nil {
				return nil, err
			}
			if res.OK() {
				return t2, nil
			}
			if len(res.Violations) > 0 {
				lastViol = res.Violations[0].String()
			}
		}
	}
	return nil, fmt.Errorf("techmap: no hazard-free decomposition found for %s (last: %s)",
		nl.Signals[g.Output], lastViol)
}

// cPairCandidates finds variable pairs (x,y) that appear together positively
// in some set cube and negatively in some reset cube — the extractable
// sub-C-elements.
func cPairCandidates(g *logic.Gate) [][2]int {
	posPairs := map[[2]int]bool{}
	for _, c := range g.Set.Cubes {
		vars := positiveVars(c)
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				posPairs[[2]int{vars[i], vars[j]}] = true
			}
		}
	}
	var out [][2]int
	seen := map[[2]int]bool{}
	for _, c := range g.Reset.Cubes {
		vars := negativeVars(c)
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				key := [2]int{vars[i], vars[j]}
				if posPairs[key] && !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
			}
		}
	}
	return out
}

func positiveVars(c boolmin.Cube) []int {
	var out []int
	for v := 0; v < 64; v++ {
		bit := uint64(1) << uint(v)
		if c.Care&bit != 0 && c.Val&bit != 0 {
			out = append(out, v)
		}
	}
	return out
}

func negativeVars(c boolmin.Cube) []int {
	var out []int
	for v := 0; v < 64; v++ {
		bit := uint64(1) << uint(v)
		if c.Care&bit != 0 && c.Val&bit == 0 {
			out = append(out, v)
		}
	}
	return out
}

// applyCPair extracts u = C(set: x·y, reset: x'·y') and substitutes u for
// x·y in the target's set cubes and u' for x'·y' in its reset cubes.
func applyCPair(nl *logic.Netlist, gi, x, y int, wName string, kind logic.GateKind) (*logic.Netlist, bool) {
	trial := cloneNetlist(nl)
	if trial.SignalIndex(wName) >= 0 {
		return nil, false
	}
	u := trial.AddSignal(wName, stg.Internal)
	n := len(trial.Signals)
	for i := range trial.Gates {
		trial.Gates[i].F.N = n
		trial.Gates[i].Set.N = n
		trial.Gates[i].Reset.N = n
	}
	set := boolmin.Cover{N: n, Cubes: []boolmin.Cube{
		boolmin.FullCube().WithLiteral(x, true).WithLiteral(y, true)}}
	reset := boolmin.Cover{N: n, Cubes: []boolmin.Cube{
		boolmin.FullCube().WithLiteral(x, false).WithLiteral(y, false)}}
	trial.Gates = append(trial.Gates, logic.Gate{Kind: kind, Output: u, Set: set, Reset: reset})

	tg := &trial.Gates[gi]
	xb, yb := uint64(1)<<uint(x), uint64(1)<<uint(y)
	progressed := false
	for ci, c := range tg.Set.Cubes {
		if c.Care&xb != 0 && c.Val&xb != 0 && c.Care&yb != 0 && c.Val&yb != 0 {
			c.Care &^= xb | yb
			c.Val &^= xb | yb
			tg.Set.Cubes[ci] = c.WithLiteral(u, true)
			progressed = true
		}
	}
	for ci, c := range tg.Reset.Cubes {
		if c.Care&xb != 0 && c.Val&xb == 0 && c.Care&yb != 0 && c.Val&yb == 0 {
			c.Care &^= xb | yb
			c.Val &^= xb | yb
			tg.Reset.Cubes[ci] = c.WithLiteral(u, false)
			progressed = true
		}
	}
	if !progressed {
		return nil, false
	}
	if err := trial.Validate(); err != nil {
		return nil, false
	}
	return trial, true
}

// withAckVariants yields the trial netlist plus acknowledgment-forcing
// variants: versions where other networks redundantly include the new wire's
// literal (tautology-preserving), so that the wire's transitions are observed
// before dependent state changes — the "multiple acknowledgment" repair for
// wires whose reset phase would otherwise go unobserved.
func withAckVariants(trial *logic.Netlist, wName string) []*logic.Netlist {
	out := []*logic.Netlist{trial}
	w := trial.SignalIndex(wName)
	if w < 0 {
		return out
	}
	var divisor boolmin.Cover
	for _, g := range trial.Gates {
		if g.Output == w {
			divisor = g.F
		}
	}
	n := len(trial.Signals)
	// Collect per-network tautology-preserving extensions.
	type ext struct {
		gate, which int
		cover       boolmin.Cover
	}
	var exts []ext
	for gi := range trial.Gates {
		if trial.Gates[gi].Output == w {
			continue
		}
		for nw := 0; nw < 3; nw++ {
			cv := network(&trial.Gates[gi], nw)
			if len(cv.Cubes) == 0 || cubesUse(cv, w) {
				continue
			}
			for _, pol := range []bool{true, false} {
				var cubes []boolmin.Cube
				for _, c := range cv.Cubes {
					cubes = append(cubes, c.WithLiteral(w, pol))
				}
				cand := boolmin.Cover{N: n, Cubes: cubes}
				if substitutedEqual(*cv, cand, w, divisor, n) {
					exts = append(exts, ext{gate: gi, which: nw, cover: cand})
					break
				}
			}
		}
	}
	// One variant per single extension, plus the everything-extended one.
	for _, e := range exts {
		v := cloneNetlist(trial)
		*network(&v.Gates[e.gate], e.which) = e.cover.Clone()
		out = append(out, v)
	}
	if len(exts) > 1 {
		v := cloneNetlist(trial)
		for _, e := range exts {
			*network(&v.Gates[e.gate], e.which) = e.cover.Clone()
		}
		out = append(out, v)
	}
	return out
}

func cubesUse(cv *boolmin.Cover, w int) bool {
	for _, c := range cv.Cubes {
		if c.Care&(1<<uint(w)) != 0 {
			return true
		}
	}
	return false
}

// candidates generates divisor covers: algebraic kernels first (best gain
// first), then cube splits (pairs of literals of the widest cube) and OR
// splits (pairs of cubes).
func candidates(f boolmin.Cover, maxFanIn int) []boolmin.Cover {
	var out []boolmin.Cover
	type scored struct {
		cv   boolmin.Cover
		gain int
	}
	var ks []scored
	for _, k := range f.Kernels() {
		if len(k.Kernel.Cubes) < 2 {
			continue
		}
		q, r := f.Divide(k.Kernel)
		if len(q.Cubes) == 0 {
			continue
		}
		gain := f.Literals() - (k.Kernel.Literals() + q.Literals() + len(q.Cubes) + r.Literals())
		ks = append(ks, scored{cv: k.Kernel, gain: gain})
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].gain > ks[j].gain })
	for _, s := range ks {
		out = append(out, s.cv)
	}
	// Single-cube extraction: pull a whole product out as a wire
	// (f = A + B·C  →  w = B·C, f = A + w).
	if len(f.Cubes) > 1 {
		for _, c := range f.Cubes {
			if c.Literals() >= 2 {
				out = append(out, boolmin.Cover{N: f.N, Cubes: []boolmin.Cube{c}})
			}
		}
	}
	// Cube split: the widest cube's first literal pairs.
	widest := -1
	for i, c := range f.Cubes {
		if widest < 0 || c.Literals() > f.Cubes[widest].Literals() {
			widest = i
		}
	}
	if widest >= 0 && f.Cubes[widest].Literals() > maxFanIn {
		lits := literalsOf(f.Cubes[widest], f.N)
		for i := 0; i < len(lits) && i < 4; i++ {
			for j := i + 1; j < len(lits) && j < 5; j++ {
				cv := boolmin.Cover{N: f.N, Cubes: []boolmin.Cube{
					boolmin.FullCube().
						WithLiteral(lits[i].v, lits[i].pos).
						WithLiteral(lits[j].v, lits[j].pos)}}
				out = append(out, cv)
			}
		}
	}
	// OR split: pairs of cubes.
	if len(f.Cubes) > maxFanIn {
		for i := 0; i < len(f.Cubes) && i < 4; i++ {
			for j := i + 1; j < len(f.Cubes) && j < 5; j++ {
				out = append(out, boolmin.Cover{N: f.N, Cubes: []boolmin.Cube{f.Cubes[i], f.Cubes[j]}})
			}
		}
	}
	return out
}

type literal struct {
	v   int
	pos bool
}

func literalsOf(c boolmin.Cube, n int) []literal {
	var out []literal
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v)
		if c.Care&bit != 0 {
			out = append(out, literal{v: v, pos: c.Val&bit != 0})
		}
	}
	return out
}

// reachableCare returns the reachable codes of the closed system over the
// netlist's current signal space (spec signals from the spec SG, added wires
// evaluated combinationally). It explores under the trial verifications'
// spec state graph and budget.
func reachableCare(nl *logic.Netlist, spec *stg.STG, opts sim.Options) ([]uint64, error) {
	sg, err := sim.StateGraph(nl, spec, sim.Options{SG: opts.SG, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	seen := map[uint64]bool{}
	var out []uint64
	for _, s := range sg.States {
		c := uint64(s.Code)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// applyCandidate builds the trial netlist: new wire w = div, the selected
// network of the target gate rewritten by algebraic division, and every
// other combinational network resubstituted with w where a w-using cover of
// no greater cost exists on the care set.
func applyCandidate(nl *logic.Netlist, gi, which int, div boolmin.Cover, wName string, care []uint64) (*logic.Netlist, bool) {
	trial := cloneNetlist(nl)
	if trial.SignalIndex(wName) >= 0 {
		return nil, false
	}
	w := trial.AddSignal(wName, stg.Internal)
	n := len(trial.Signals)
	// Re-embed all covers into the widened space.
	for i := range trial.Gates {
		trial.Gates[i].F.N = n
		trial.Gates[i].Set.N = n
		trial.Gates[i].Reset.N = n
	}
	divW := boolmin.Cover{N: n, Cubes: append([]boolmin.Cube(nil), div.Cubes...)}
	trial.Gates = append(trial.Gates, logic.Gate{Kind: logic.Comb, Output: w, F: divW})

	// Extended care set: w's value follows its function.
	extCare := make([]uint64, len(care))
	for i, c := range care {
		if divW.Eval(c) {
			c |= 1 << uint(w)
		}
		extCare[i] = c
	}

	// Rewrite the target network: algebraic division, else Boolean
	// resubstitution.
	target := network(&trial.Gates[gi], which)
	oldTarget := target.Clone()
	q, r := target.Divide(divW)
	if len(q.Cubes) > 0 {
		var cubes []boolmin.Cube
		for _, qc := range q.Cubes {
			cubes = append(cubes, qc.WithLiteral(w, true))
		}
		cubes = append(cubes, r.Cubes...)
		*target = boolmin.Cover{N: n, Cubes: cubes}
	} else if sub, ok := resubstitute(*target, w, extCare, n, true); ok &&
		substitutedEqual(oldTarget, sub, w, divW, n) {
		*target = sub
	} else {
		return nil, false
	}
	// Progress: the rewritten network's support must strictly shrink.
	oldGate := nl.Gates[gi]
	if len(target.Support()) >= len(network(&oldGate, which).Support()) {
		return nil, false
	}

	// Resubstitute other combinational networks (multiple acknowledgment):
	// accept w-using covers of no greater literal cost.
	for i := range trial.Gates {
		if trial.Gates[i].Output == w {
			continue
		}
		for nw := 0; nw < 3; nw++ {
			if i == gi && nw == which {
				continue
			}
			cv := network(&trial.Gates[i], nw)
			if len(cv.Cubes) == 0 {
				continue
			}
			if sub, ok := resubstitute(*cv, w, extCare, n, false); ok &&
				sub.Literals() <= cv.Literals() &&
				substitutedEqual(*cv, sub, w, divW, n) {
				*cv = sub
			}
		}
	}
	if err := trial.Validate(); err != nil {
		return nil, false
	}
	return trial, true
}

// substitutedEqual checks new[w := divisor] ≡ old over the full Boolean
// space of the other variables: the soundness condition that makes a
// resubstitution safe even in transient states where downstream networks
// evaluate mid-switch vectors. Enumerates 2^(n-1); callers keep n small.
func substitutedEqual(old, new boolmin.Cover, w int, divisor boolmin.Cover, n int) bool {
	if n > 22 {
		return false // refuse rather than enumerate
	}
	wBit := uint64(1) << uint(w)
	total := uint64(1) << uint(n)
	for v := uint64(0); v < total; v++ {
		if v&wBit != 0 {
			continue // enumerate over w=0 slots; w is forced below
		}
		vv := v
		if divisor.Eval(v) {
			vv |= wBit
		}
		if new.Eval(vv) != old.Eval(vv) {
			return false
		}
	}
	return true
}

// resubstitute re-minimizes cover f over the extended care set, biasing the
// result toward cubes that use wire w: candidate implicants are on-minterm
// expansions against the reachable off-set, once forcing the w literal to
// stay and once unconstrained. When force is set, failure to use w rejects
// the result. Complexity is |care|²·n — no 2^n enumeration.
func resubstitute(f boolmin.Cover, w int, care []uint64, n int, force bool) (boolmin.Cover, bool) {
	var on, off []uint64
	for _, c := range care {
		if f.Eval(c) {
			on = append(on, c)
		} else {
			off = append(off, c)
		}
	}
	if len(on) == 0 {
		return boolmin.Cover{N: n}, !force
	}
	seen := map[boolmin.Cube]bool{}
	var cands []boolmin.Cube
	for _, m := range on {
		for _, keep := range []uint64{1 << uint(w), 0} {
			c := boolmin.Expand(m, off, n, keep)
			if !seen[c] {
				seen[c] = true
				cands = append(cands, c)
			}
		}
	}
	// Prefer w-using cubes, then fewer literals.
	sort.SliceStable(cands, func(i, j int) bool {
		iw := cands[i].Care&(1<<uint(w)) != 0
		jw := cands[j].Care&(1<<uint(w)) != 0
		if iw != jw {
			return iw
		}
		return cands[i].Literals() < cands[j].Literals()
	})
	var cover []boolmin.Cube
	remaining := map[uint64]bool{}
	for _, m := range on {
		remaining[m] = true
	}
	for _, p := range cands {
		if len(remaining) == 0 {
			break
		}
		gain := 0
		for m := range remaining {
			if p.Contains(m) {
				gain++
			}
		}
		if gain > 0 {
			cover = append(cover, p)
			for m := range remaining {
				if p.Contains(m) {
					delete(remaining, m)
				}
			}
		}
	}
	if len(remaining) > 0 {
		return boolmin.Cover{}, false
	}
	out := boolmin.Cover{N: n, Cubes: cover}
	if force {
		uses := false
		for _, c := range cover {
			if c.Care&(1<<uint(w)) != 0 {
				uses = true
			}
		}
		if !uses {
			return boolmin.Cover{}, false
		}
	}
	return out, true
}

func cloneNetlist(nl *logic.Netlist) *logic.Netlist {
	c := &logic.Netlist{Name: nl.Name}
	for i, s := range nl.Signals {
		c.AddSignal(s, nl.Kinds[i])
	}
	for _, g := range nl.Gates {
		c.Gates = append(c.Gates, logic.Gate{
			Kind:   g.Kind,
			Output: g.Output,
			F:      g.F.Clone(),
			Set:    g.Set.Clone(),
			Reset:  g.Reset.Clone(),
		})
	}
	return c
}
