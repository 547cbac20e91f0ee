package petri

// Structural class queries used throughout the paper: marked graphs (Fig 3),
// choice places (Fig 5), free-choice nets (Section 2.2), state machines
// (Fig 6).

// IsMarkedGraph reports whether every place has at most one input and at most
// one output transition — the class in which only concurrency and sequencing,
// but not choice, is allowed.
func (n *Net) IsMarkedGraph() bool {
	for _, p := range n.Places {
		if len(p.Pre) > 1 || len(p.Post) > 1 {
			return false
		}
	}
	return true
}

// IsStateMachine reports whether every transition has exactly one input and
// one output place — the dual class in which only choice and sequencing, but
// not concurrency, is allowed.
func (n *Net) IsStateMachine() bool {
	for _, t := range n.Transitions {
		if len(t.Pre) != 1 || len(t.Post) != 1 {
			return false
		}
	}
	return true
}

// IsFreeChoice reports whether the net is (extended) free choice: any two
// transitions sharing an input place have identical presets. In free-choice
// nets choice and concurrency do not interfere, which many structural
// analysis results require.
func (n *Net) IsFreeChoice() bool {
	for _, p := range n.Places {
		if len(p.Post) < 2 {
			continue
		}
		first := n.Transitions[p.Post[0]].Pre
		for _, t := range p.Post[1:] {
			if !sameIntSet(first, n.Transitions[t].Pre) {
				return false
			}
		}
	}
	return true
}

// ChoicePlaces returns the indexes of all places with more than one output
// transition: the points where the net makes a (possibly non-deterministic)
// choice between alternative behaviours.
func (n *Net) ChoicePlaces() []int {
	var out []int
	for i, p := range n.Places {
		if len(p.Post) > 1 {
			out = append(out, i)
		}
	}
	return out
}

// MergePlaces returns the indexes of all places with more than one input
// transition: the points where alternative branches re-join.
func (n *Net) MergePlaces() []int {
	var out []int
	for i, p := range n.Places {
		if len(p.Pre) > 1 {
			out = append(out, i)
		}
	}
	return out
}

// ConflictPairs returns all pairs of distinct transitions that share at least
// one input place (structural conflict).
func (n *Net) ConflictPairs() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, p := range n.Places {
		for i := 0; i < len(p.Post); i++ {
			for j := i + 1; j < len(p.Post); j++ {
				a, b := p.Post[i], p.Post[j]
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// StronglyConnected reports whether the net's underlying directed graph
// (places and transitions as nodes) is strongly connected. Live safe
// free-choice nets are covered by strongly connected components; marked
// graphs must be strongly connected to be live with a finite marking.
func (n *Net) StronglyConnected() bool {
	nodes := len(n.Places) + len(n.Transitions)
	if nodes == 0 {
		return true
	}
	// Node ids: places 0..P-1, transitions P..P+T-1.
	p := len(n.Places)
	succ := func(v int) []int {
		if v < p {
			return addAll(nil, n.Places[v].Post, p)
		}
		return append([]int(nil), n.Transitions[v-p].Post...)
	}
	pred := func(v int) []int {
		if v < p {
			return addAll(nil, n.Places[v].Pre, p)
		}
		return append([]int(nil), n.Transitions[v-p].Pre...)
	}
	return reachesAll(nodes, 0, succ) && reachesAll(nodes, 0, pred)
}

func addAll(dst []int, src []int, offset int) []int {
	for _, v := range src {
		dst = append(dst, v+offset)
	}
	return dst
}

func reachesAll(n, start int, succ func(int) []int) bool {
	seen := make([]bool, n)
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succ(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[int]bool{}
	for _, v := range a {
		in[v] = true
	}
	for _, v := range b {
		if !in[v] {
			return false
		}
	}
	return true
}
