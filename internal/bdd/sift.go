package bdd

import "sort"

// Dynamic variable reordering by Rudell sifting. Each variable in turn is
// moved through every order position via adjacent-level swaps and parked
// where the live node count was smallest. Swaps rewrite nodes in place —
// a node id always denotes the same Boolean function before and after —
// so outstanding Refs remain valid across reordering.
//
// An adjacent swap of levels l (variable x) and l+1 (variable y) follows
// the classic rules:
//
//   - a node at level l+1 keeps testing y, which now sits at level l: only
//     its level field changes;
//   - a node at level l independent of y keeps testing x, which now sits at
//     level l+1: only its level field changes;
//   - a node at level l that depends on y is rewritten in place to test y,
//     its children rebuilt as (possibly fresh) x-nodes at level l+1 from
//     the four grandcofactors.
//
// Children of rewritten nodes whose reference count drops to zero are
// reclaimed eagerly, so the live count steered by the sifting search is
// exact.

// Sift runs one full Rudell sifting pass: a garbage collection, then every
// variable (largest level population first) is sifted to its locally
// optimal position. The operation cache is cleared afterwards because
// freed slots may have been recycled during the swaps.
func (m *Manager) Sift() {
	if m.numVars < 2 {
		return
	}
	m.GC()
	s := newSifter(m)
	type varCount struct {
		v int32
		n int
	}
	order := make([]varCount, m.numVars)
	for v := 0; v < m.numVars; v++ {
		order[v] = varCount{int32(v), len(s.byLevel[m.var2level[v]])}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		return order[i].v < order[j].v
	})
	for _, e := range order {
		if e.n == 0 {
			continue
		}
		s.siftVar(e.v)
	}
	m.clearCache()
	m.stats.Reorders++
}

type sifter struct {
	m *Manager
	// cnt[id] counts parents of id plus one pin for externally referenced
	// roots and projection functions. Maintained exactly through swaps so
	// zero means reclaimable.
	cnt []int32
	// byLevel[l] lists the live node ids at order level l; pos[id] is the
	// index of id within its level list.
	byLevel [][]int32
	pos     []int32
	// scratch buffers reused across swaps.
	indep []int32
	rw    []rewrite
}

type rewrite struct {
	id                 int32
	oldLo, oldHi       int32
	f00, f01, f10, f11 int32
}

func newSifter(m *Manager) *sifter {
	s := &sifter{
		m:       m,
		cnt:     make([]int32, len(m.nodes)),
		pos:     make([]int32, len(m.nodes)),
		byLevel: make([][]int32, m.numVars),
	}
	for id := int32(2); id < int32(len(m.nodes)); id++ {
		n := &m.nodes[id]
		if n.level == freeLevel {
			continue
		}
		s.cnt[n.lo]++
		s.cnt[n.hi]++
		s.addToLevel(id, n.level)
		if m.extRef[id] > 0 {
			s.cnt[id]++
		}
	}
	for _, r := range m.varPos {
		if r > 1 {
			s.cnt[r]++
		}
	}
	for _, r := range m.varNeg {
		if r > 1 {
			s.cnt[r]++
		}
	}
	return s
}

func (s *sifter) addToLevel(id, l int32) {
	s.pos[id] = int32(len(s.byLevel[l]))
	s.byLevel[l] = append(s.byLevel[l], id)
}

func (s *sifter) removeFromLevel(id, l int32) {
	lst := s.byLevel[l]
	p := s.pos[id]
	last := lst[len(lst)-1]
	lst[p] = last
	s.pos[last] = p
	s.byLevel[l] = lst[:len(lst)-1]
}

// siftVar moves variable v through the order and parks it at the position
// with the smallest live node count, searching the nearer end first and
// aborting a direction when the arena doubles past the best size seen.
func (s *sifter) siftVar(v int32) {
	m := s.m
	n := int32(m.numVars)
	start := m.var2level[v]
	best := m.live
	bestPos := start
	limit := 2*m.live + 16
	down := func() {
		for l := m.var2level[v]; l+1 < n; l++ {
			s.swap(l)
			if m.live < best {
				best, bestPos = m.live, l+1
			}
			if m.live > limit {
				return
			}
		}
	}
	up := func() {
		for l := m.var2level[v]; l > 0; l-- {
			s.swap(l - 1)
			if m.live < best {
				best, bestPos = m.live, l-1
			}
			if m.live > limit {
				return
			}
		}
	}
	if start >= n/2 {
		down()
		up()
	} else {
		up()
		down()
	}
	for cur := m.var2level[v]; cur > bestPos; cur = m.var2level[v] {
		s.swap(cur - 1)
	}
	for cur := m.var2level[v]; cur < bestPos; cur = m.var2level[v] {
		s.swap(cur)
	}
}

// swap exchanges the variables at levels l and l+1.
func (s *sifter) swap(l int32) {
	m := s.m
	m.stats.Swaps++
	L := s.byLevel[l]
	M := s.byLevel[l+1]
	if len(L) > 0 || len(M) > 0 {
		// Grow the table up front so no rehash can fire while entries are
		// temporarily removed (a rehash rebuilds from the arena and would
		// resurrect them). A swap adds at most two fresh nodes per rewrite
		// and never increases used+tombstones otherwise, so reserving for
		// that worst case keeps every insert below the 3/4 load factor.
		for (m.tableUsed+m.tableTombs+2*len(L)+4)*4 >= len(m.table)*3 {
			m.rehash(true)
		}

		for _, id := range L {
			m.tableDelete(id)
		}
		for _, id := range M {
			m.tableDelete(id)
		}

		// Classify level-l nodes before any level fields move.
		s.indep = s.indep[:0]
		s.rw = s.rw[:0]
		for _, id := range L {
			n := m.nodes[id]
			loDep := m.nodes[n.lo].level == l+1
			hiDep := m.nodes[n.hi].level == l+1
			if !loDep && !hiDep {
				s.indep = append(s.indep, id)
				continue
			}
			f00, f01 := n.lo, n.lo
			if loDep {
				f00, f01 = m.nodes[n.lo].lo, m.nodes[n.lo].hi
			}
			f10, f11 := n.hi, n.hi
			if hiDep {
				f10, f11 = m.nodes[n.hi].lo, m.nodes[n.hi].hi
			}
			s.rw = append(s.rw, rewrite{id, n.lo, n.hi, f00, f01, f10, f11})
		}

		// Level l+1 nodes all move up to level l (positions inside the
		// list are unchanged, so pos stays right).
		s.byLevel[l] = M
		s.byLevel[l+1] = L[:0]
		for _, id := range M {
			m.nodes[id].level = l
			m.tableInsert(id)
		}
		// Independent level-l nodes move down to level l+1.
		for _, id := range s.indep {
			m.nodes[id].level = l + 1
			s.addToLevel(id, l+1)
			m.tableInsert(id)
		}
		// Dependent nodes are rewritten in place at level l.
		for _, r := range s.rw {
			g0 := s.mkAt(l+1, r.f00, r.f10)
			s.cnt[g0]++
			g1 := s.mkAt(l+1, r.f01, r.f11)
			s.cnt[g1]++
			m.nodes[r.id] = node{level: l, lo: g0, hi: g1}
			s.addToLevel(r.id, l)
			m.tableInsert(r.id)
			s.deref(r.oldLo)
			s.deref(r.oldHi)
		}
	}

	x, y := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = y, x
	m.var2level[x], m.var2level[y] = l+1, l
}

// mkAt is the hash-consing constructor used inside a swap: like mk, but it
// maintains the sifter's reference counts and level lists and never
// triggers a rehash (capacity is reserved by swap).
func (s *sifter) mkAt(level, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	m := s.m
	m.stats.UniqueLookups++
	h := hashNode(level, lo, hi) & m.tableMask
	for {
		id := m.table[h]
		if id == 0 {
			break
		}
		if id != tombstone {
			n := &m.nodes[id]
			if n.level == level && n.lo == lo && n.hi == hi {
				m.stats.UniqueHits++
				return id
			}
		}
		h = (h + 1) & m.tableMask
	}
	id := m.alloc(level, Ref(lo), Ref(hi))
	for int(id) >= len(s.cnt) {
		s.cnt = append(s.cnt, 0)
		s.pos = append(s.pos, 0)
	}
	s.cnt[id] = 0
	s.cnt[lo]++
	s.cnt[hi]++
	s.addToLevel(id, level)
	m.tableInsert(id)
	return id
}

// deref drops one parent reference and reclaims the node (recursively)
// when none remain.
func (s *sifter) deref(id int32) {
	if id <= 1 {
		return
	}
	s.cnt[id]--
	if s.cnt[id] > 0 {
		return
	}
	m := s.m
	n := m.nodes[id]
	m.tableDelete(id)
	s.removeFromLevel(id, n.level)
	m.nodes[id].level = freeLevel
	m.free = append(m.free, id)
	m.live--
	s.deref(n.lo)
	s.deref(n.hi)
}
