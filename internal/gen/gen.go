// Package gen generates scalable specification families: the workloads for
// the Section 2.2 engine comparisons (explicit vs symbolic vs unfolding vs
// partial-order reachability), where concurrency makes explicit state spaces
// explode exponentially while the structure stays linear.
package gen

import (
	"fmt"

	"repro/internal/petri"
	"repro/internal/stg"
)

// MullerPipeline builds an n-stage Muller pipeline control STG: request/
// acknowledge handshakes r_i/a_i chained through C-element-like causality.
// Stage i's acknowledge a_i rises after r_i rises and falls after r_i falls;
// r_{i+1} follows a_i. The state space grows exponentially with n while the
// net grows linearly.
func MullerPipeline(n int) *stg.STG {
	g := stg.New(fmt.Sprintf("muller-%d", n))
	rp := make([]int, n)
	rm := make([]int, n)
	ap := make([]int, n)
	am := make([]int, n)
	for i := 0; i < n; i++ {
		r := g.AddSignal(fmt.Sprintf("r%d", i), stg.Input)
		a := g.AddSignal(fmt.Sprintf("a%d", i), stg.Output)
		rp[i] = g.AddTransition(r, stg.Rise)
		rm[i] = g.AddTransition(r, stg.Fall)
		ap[i] = g.AddTransition(a, stg.Rise)
		am[i] = g.AddTransition(a, stg.Fall)
	}
	net := g.Net
	for i := 0; i < n; i++ {
		// Local handshake: r+ -> a+ -> r- -> a- -> r+ (token closes loop).
		net.Implicit(rp[i], ap[i], 0)
		net.Implicit(ap[i], rm[i], 0)
		net.Implicit(rm[i], am[i], 0)
		net.Implicit(am[i], rp[i], 1)
		if i+1 < n {
			// Pipeline coupling: the next request follows this stage's ack,
			// and this stage cannot re-request until the next acked.
			net.Implicit(ap[i], rp[i+1], 0)
			net.Implicit(am[i+1], rp[i], 1)
		}
	}
	return g
}

// IndependentToggles builds n completely independent two-phase toggles:
// 2^n reachable markings from 2n transitions — the worst case for explicit
// enumeration and the best case for symbolic/unfolding methods.
func IndependentToggles(n int) *petri.Net {
	net := petri.New(fmt.Sprintf("toggles-%d", n))
	for i := 0; i < n; i++ {
		up := net.AddTransition(fmt.Sprintf("u%d", i))
		dn := net.AddTransition(fmt.Sprintf("d%d", i))
		p0 := net.AddPlace(fmt.Sprintf("lo%d", i), 1)
		p1 := net.AddPlace(fmt.Sprintf("hi%d", i), 0)
		net.ArcPT(p0, up)
		net.ArcTP(up, p1)
		net.ArcPT(p1, dn)
		net.ArcTP(dn, p0)
	}
	return net
}

// CSCRing builds a k-stage ring of "double-pulse" cells, the scalable
// CSC-conflict-rich family used to benchmark the state-encoding solver.
// Stage i drives two output signals a_i and b_i through the cycle
//
//	a_i+ ; a_i- ; b_i+ ; b_{i-1}- ; a_i+/1 ; a_i-/1 ; (advance to stage i+1)
//
// chained into one global cycle (a live safe marked graph, hence persistent
// and deadlock-free). The double pulse of a_i revisits the stage's entry
// code twice, producing exactly two CSC conflict pairs per stage; the
// overlapped handoff of the b signals (b_i rises before b_{i-1} falls) keeps
// a distinct b-bit high at every stage boundary, so conflicts never cross
// stages and the spec is solvable by inserting exactly one state signal per
// stage (csc_i+ after a_i+, csc_i- after a_i+/1 splits both pairs).
// The state graph has 6k states and the net 6k transitions, so the solver's
// candidate space grows quadratically with k while every candidate's state
// graph stays linear: the conflict-rich stress case of the CSC search. k is
// clamped to at least 2: the k=1 ring
// degenerates (its b pulse separates the two a pulses, which needs two
// inserted signals instead of one).
func CSCRing(k int) *stg.STG {
	if k < 2 {
		k = 2
	}
	g := stg.New(fmt.Sprintf("cscring-%d", k))
	a1 := make([]int, k) // a_i+
	a2 := make([]int, k) // a_i-
	b1 := make([]int, k) // b_i+
	b2 := make([]int, k) // b_i-
	a3 := make([]int, k) // a_i+/1
	a4 := make([]int, k) // a_i-/1
	for i := 0; i < k; i++ {
		a := g.AddSignal(fmt.Sprintf("a%d", i), stg.Output)
		b := g.AddSignal(fmt.Sprintf("b%d", i), stg.Output)
		a1[i] = g.AddTransition(a, stg.Rise)
		a2[i] = g.AddTransition(a, stg.Fall)
		b1[i] = g.AddTransition(b, stg.Rise)
		b2[i] = g.AddTransition(b, stg.Fall)
		a3[i] = g.AddTransition(a, stg.Rise)
		a4[i] = g.AddTransition(a, stg.Fall)
	}
	net := g.Net
	for i := 0; i < k; i++ {
		prev := (i + k - 1) % k
		net.Chain(a1[i], a2[i], b1[i])
		// Handoff: b_{i-1} falls only after b_i has risen, so some b bit is
		// high at every stage boundary (b_{k-1} is initially high).
		net.Chain(b1[i], b2[prev], a3[i], a4[i])
		// Advance to the next stage; the single global token starts in front
		// of stage 0.
		tokens := 0
		if i == k-1 {
			tokens = 1
		}
		net.Implicit(a4[i], a1[(i+1)%k], tokens)
	}
	return g
}

// JohnsonRing builds an n-signal Johnson counter as one marked cycle: the
// input x0 and the outputs x1..x(n-1) fire x0+ x1+ ... x(n-1)+ and then
// x0- x1- ... x(n-1)-. Its 2n states all have distinct codes. The net has
// 2n places, so past n = 32 a marking takes more than one 64-bit word.
func JohnsonRing(n int) *stg.STG {
	g := stg.New(fmt.Sprintf("johnson-%d", n))
	for i := 0; i < n; i++ {
		kind := stg.Output
		if i == 0 {
			kind = stg.Input
		}
		g.AddSignal(fmt.Sprintf("x%d", i), kind)
	}
	trans := make([]int, 0, 2*n)
	for _, dir := range []stg.Dir{stg.Rise, stg.Fall} {
		for i := 0; i < n; i++ {
			trans = append(trans, g.AddTransition(i, dir))
		}
	}
	g.Net.Chain(trans...)
	g.Net.Implicit(trans[2*n-1], trans[0], 1)
	return g
}

// MarkedGraphRing builds a k-stage ring with the given number of tokens —
// a linear-size net with a polynomial state space, used for calibration.
func MarkedGraphRing(k, tokens int) *petri.Net {
	net := petri.New(fmt.Sprintf("ring-%d-%d", k, tokens))
	ts := make([]int, k)
	for i := range ts {
		ts[i] = net.AddTransition(fmt.Sprintf("t%d", i))
	}
	for i := 0; i < k; i++ {
		init := 0
		if i < tokens {
			init = 1
		}
		p := net.AddPlace(fmt.Sprintf("p%d", i), init)
		net.ArcTP(ts[i], p)
		net.ArcPT(p, ts[(i+1)%k])
	}
	return net
}

// Philosophers builds the n dining philosophers as a safe net (thinking /
// has-left / eating cycle per philosopher, one fork place between
// neighbours). Deadlockable when every philosopher holds the left fork —
// the classic target for deadlock detection engines.
func Philosophers(n int) *petri.Net {
	net := petri.New(fmt.Sprintf("phil-%d", n))
	fork := make([]int, n)
	for i := 0; i < n; i++ {
		fork[i] = net.AddPlace(fmt.Sprintf("fork%d", i), 1)
	}
	for i := 0; i < n; i++ {
		think := net.AddPlace(fmt.Sprintf("think%d", i), 1)
		hasL := net.AddPlace(fmt.Sprintf("hasL%d", i), 0)
		eat := net.AddPlace(fmt.Sprintf("eat%d", i), 0)
		takeL := net.AddTransition(fmt.Sprintf("takeL%d", i))
		takeR := net.AddTransition(fmt.Sprintf("takeR%d", i))
		release := net.AddTransition(fmt.Sprintf("rel%d", i))
		left := fork[i]
		right := fork[(i+1)%n]
		net.ArcPT(think, takeL)
		net.ArcPT(left, takeL)
		net.ArcTP(takeL, hasL)
		net.ArcPT(hasL, takeR)
		net.ArcPT(right, takeR)
		net.ArcTP(takeR, eat)
		net.ArcPT(eat, release)
		net.ArcTP(release, think)
		net.ArcTP(release, left)
		net.ArcTP(release, right)
	}
	return net
}

// PipelineSTGDepth reports the explicit state count expected for
// MullerPipeline(n) — exponential in n — useful for sizing benchmarks.
func PipelineSTGDepth(n int) int {
	if n > 30 {
		return 1 << 30
	}
	return 1 << uint(n)
}
