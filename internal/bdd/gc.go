package bdd

// Garbage collection. External functions are protected with reference
// counts (IncRef/DecRef); GC marks from the referenced roots and the pinned
// projection functions, sweeps everything else onto the free list, and
// rehashes the unique table. Live Refs never move, so outstanding handles
// stay valid across collections.
//
// Collection only happens when GC (or Sift, which collects first) is called
// explicitly — never in the middle of an operation — so callers that do not
// use references at all (logic synthesis, ISOP extraction, ...) are
// unaffected as long as they never ask for a collection.

// IncRef protects f (and everything below it) from garbage collection.
// It returns f for chaining. Terminals are always protected.
func (m *Manager) IncRef(f Ref) Ref {
	if c := m.extRef[f]; c < 0xffff {
		m.extRef[f] = c + 1
	}
	return f
}

// DecRef drops one external reference from f. A node whose count reaches
// zero (and is unreachable from other roots) is reclaimed by the next GC.
// Counts that ever hit the 0xffff ceiling are sticky: the node is pinned.
func (m *Manager) DecRef(f Ref) {
	switch c := m.extRef[f]; c {
	case 0:
		// An unbalanced DecRef would let GC reclaim live nodes later;
		// failing at the unbalanced call is the only debuggable option.
		panic("bdd: DecRef of unreferenced node")
	case 0xffff:
		// pinned
	default:
		m.extRef[f] = c - 1
	}
}

// GC runs a mark-and-sweep collection: every node not reachable from an
// externally referenced root (or a projection function) is returned to the
// free list, the unique table is rehashed, and the operation cache is
// cleared. It returns the number of nodes reclaimed.
func (m *Manager) GC() int {
	marked := make([]bool, len(m.nodes))
	marked[0], marked[1] = true, true
	var stack []int32
	push := func(id int32) {
		if !marked[id] {
			marked[id] = true
			stack = append(stack, id)
		}
	}
	for id := int32(2); id < int32(len(m.nodes)); id++ {
		if m.extRef[id] > 0 && m.nodes[id].level != freeLevel {
			push(id)
		}
	}
	for _, r := range m.varPos {
		if r > 1 {
			push(int32(r))
		}
	}
	for _, r := range m.varNeg {
		if r > 1 {
			push(int32(r))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[id]
		push(n.lo)
		push(n.hi)
	}

	freed := 0
	for id := int32(2); id < int32(len(m.nodes)); id++ {
		if marked[id] || m.nodes[id].level == freeLevel {
			continue
		}
		m.nodes[id].level = freeLevel
		m.free = append(m.free, id)
		freed++
	}
	m.live -= freed
	m.rehash(false)
	m.clearCache()
	m.stats.GCRuns++
	m.stats.GCFreed += uint64(freed)
	return freed
}
