package boolmin

import "sort"

// selectCover picks a subset of primes covering every on-set minterm:
// essential primes first, then Petrick's method when the residual problem is
// small, else greedy set cover.
func selectCover(primes []Cube, on []uint64, n int) []Cube {
	mask := maskN(n)
	// coverers[i] = indexes of primes covering on[i].
	coverers := make([][]int, len(on))
	for i, m := range on {
		for pi, p := range primes {
			if p.Contains(m & mask) {
				coverers[i] = append(coverers[i], pi)
			}
		}
	}
	chosen := map[int]bool{}
	covered := make([]bool, len(on))
	// Essential primes.
	for _, cs := range coverers {
		if len(cs) == 1 {
			chosen[cs[0]] = true
		}
	}
	markCovered := func() {
		for i, m := range on {
			if covered[i] {
				continue
			}
			for pi := range chosen {
				if primes[pi].Contains(m & mask) {
					covered[i] = true
					break
				}
			}
		}
	}
	markCovered()

	var residual []int
	for i := range on {
		if !covered[i] {
			residual = append(residual, i)
		}
	}
	if len(residual) > 0 {
		// Candidate primes for the residual.
		candSet := map[int]bool{}
		for _, i := range residual {
			for _, pi := range coverers[i] {
				candSet[pi] = true
			}
		}
		var cands []int
		for pi := range candSet {
			cands = append(cands, pi)
		}
		sort.Ints(cands)
		var pick []int
		if len(cands) <= 16 && len(residual) <= 24 {
			pick = petrick(primes, cands, residual, coverers)
		} else {
			pick = greedyCover(primes, cands, residual, coverers)
		}
		for _, pi := range pick {
			chosen[pi] = true
		}
	}

	var out []Cube
	var idx []int
	for pi := range chosen {
		idx = append(idx, pi)
	}
	sort.Ints(idx)
	for _, pi := range idx {
		out = append(out, primes[pi])
	}
	return out
}

// petrick finds a minimum-cost subset of cands covering all residual
// minterms by exhaustive search over subsets ordered by cost (branch and
// bound on total literal count, then cube count).
func petrick(primes []Cube, cands, residual []int, coverers [][]int) []int {
	best := append([]int(nil), cands...) // worst case: all
	bestCost := coverCost(primes, best)
	var cur []int
	var rec func(ri int)
	covered := map[int]int{} // residual index -> count of chosen coverers
	rec = func(ri int) {
		if coverCost(primes, cur) >= bestCost {
			return
		}
		// Find first uncovered residual minterm.
		for ; ri < len(residual); ri++ {
			if covered[ri] == 0 {
				break
			}
		}
		if ri == len(residual) {
			best = append([]int(nil), cur...)
			bestCost = coverCost(primes, cur)
			return
		}
		for _, pi := range coverers[residual[ri]] {
			cur = append(cur, pi)
			var bumped []int
			for rj := range residual {
				for _, c := range coverers[residual[rj]] {
					if c == pi {
						covered[rj]++
						bumped = append(bumped, rj)
						break
					}
				}
			}
			rec(ri + 1)
			for _, rj := range bumped {
				covered[rj]--
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	sort.Ints(best)
	return best
}

func coverCost(primes []Cube, pick []int) int {
	cost := 0
	for _, pi := range pick {
		cost += primes[pi].Literals() + 1
	}
	return cost
}

func greedyCover(primes []Cube, cands, residual []int, coverers [][]int) []int {
	remaining := map[int]bool{}
	for _, r := range residual {
		remaining[r] = true
	}
	coversOf := map[int][]int{} // prime -> residual minterm list
	for _, r := range residual {
		for _, pi := range coverers[r] {
			coversOf[pi] = append(coversOf[pi], r)
		}
	}
	var pick []int
	for len(remaining) > 0 {
		bestPi, bestGain := -1, -1
		for _, pi := range cands {
			gain := 0
			for _, r := range coversOf[pi] {
				if remaining[r] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && bestPi >= 0 && pi < bestPi) {
				bestPi, bestGain = pi, gain
			}
		}
		if bestPi < 0 || bestGain == 0 {
			break // unreachable if coverers complete
		}
		pick = append(pick, bestPi)
		for _, r := range coversOf[bestPi] {
			delete(remaining, r)
		}
	}
	sort.Ints(pick)
	return pick
}
