// Package bdd implements reduced ordered binary decision diagrams (Bryant,
// reference [3] of the paper): the symbolic representation used in Section
// 2.2 for implicit traversal of reachability graphs. Nodes live in an arena
// indexed by dense ids; hash-consing guarantees canonicity, so equality of
// functions is pointer (id) equality.
//
// The kernel follows the CUDD lineage of Bryant-style packages:
//
//   - the unique table is a custom open-addressed hash table (FNV-mixed hash
//     over (level, lo, hi), power-of-two capacity, incremental growth) rather
//     than a Go map;
//   - operation results are memoized in a fixed-size lossy direct-mapped
//     cache keyed by an op tag (see cache.go) instead of unbounded maps;
//   - external functions are protected with reference counts and dead nodes
//     are reclaimed by mark-and-sweep garbage collection with a unique-table
//     rehash (see gc.go);
//   - the variable order is dynamic: Rudell sifting reorders levels in place
//     without invalidating outstanding Refs (see sift.go).
//
// Variables are distinct from levels: public APIs speak variables, node
// ordering uses levels, and var2level/level2var translate. With reordering
// disabled the two coincide.
package bdd

import (
	"fmt"
	"math"
	"math/big"
)

// node is a BDD vertex: order level and two cofactor ids. Terminals use
// level == terminalLevel; free arena slots use level == freeLevel.
type node struct {
	level  int32 // position in the variable order; terminals get math.MaxInt32
	lo, hi int32 // else / then children
}

const (
	terminalLevel = math.MaxInt32
	freeLevel     = -1
)

// Ref is a BDD function handle. Refs stay valid across garbage collection
// (while externally referenced) and across dynamic reordering (always).
type Ref int32

// False and True are the terminal functions.
const (
	False Ref = 0
	True  Ref = 1
)

// Manager owns the node arena, the unique table and the operation cache.
// It is not safe for concurrent use.
type Manager struct {
	nodes []node
	// extRef holds external reference counts (IncRef/DecRef); 0xffff is
	// sticky (pinned forever).
	extRef []uint16
	free   []int32 // reusable arena slots
	live   int     // live internal nodes (allocated minus freed)

	// Open-addressed unique table of node ids. 0 means empty and
	// tombstone (-1) marks deleted slots; node 0 is the False terminal,
	// which is never hash-consed, so the sentinels cannot collide with a
	// stored id.
	table      []int32
	tableMask  uint32
	tableUsed  int // occupied slots (live entries)
	tableTombs int // tombstones from deletions

	cache       []cacheEntry // unified direct-mapped op cache
	cacheMask   uint32
	cacheGrowAt int

	// Interned quantification masks: mask id -> per-variable bitmask.
	masks       [][]uint64
	maskIDs     map[string]int32
	maskScratch []byte

	// Variable order. level2var[l] is the variable tested at level l.
	var2level []int32
	level2var []int32

	// Projection functions, pinned as GC roots once created.
	varPos []Ref // Var(i) node, 0 when not yet built
	varNeg []Ref // NVar(i) node

	numVars int

	stats Stats
}

// Stats is a snapshot of kernel counters (see Manager.Stats).
type Stats struct {
	// Live is the current number of live internal nodes.
	Live int
	// PeakLive is the maximum number of simultaneously live internal
	// nodes observed.
	PeakLive int
	// Allocated is the arena length (live + free slots), terminals
	// excluded.
	Allocated int
	// CacheLookups and CacheHits count operation-cache probes.
	CacheLookups, CacheHits uint64
	// CacheEntries is the current capacity of the lossy op cache.
	CacheEntries int
	// UniqueLookups and UniqueHits count unique-table probes (hash
	// consing).
	UniqueLookups, UniqueHits uint64
	// GCRuns and GCFreed count mark-and-sweep collections and the nodes
	// they reclaimed.
	GCRuns  int
	GCFreed uint64
	// Reorders and Swaps count sifting passes and adjacent-level swaps.
	Reorders int
	Swaps    uint64
}

// CacheHitRate returns the op-cache hit fraction in [0,1].
func (s Stats) CacheHitRate() float64 {
	if s.CacheLookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheLookups)
}

// Stats returns a snapshot of the kernel counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Live = m.live
	s.Allocated = len(m.nodes) - 2
	s.CacheEntries = len(m.cache)
	return s
}

const (
	initialTableSize = 1 << 10
	initialCacheSize = 1 << 12
	maxCacheSize     = 1 << 21
)

// New creates a manager for the given number of variables. A negative count
// panics: callers size managers from place/signal counts, which cannot be
// negative unless the caller is broken.
func New(numVars int) *Manager {
	if numVars < 0 {
		panic("bdd: negative variable count")
	}
	m := &Manager{
		table:       make([]int32, initialTableSize),
		tableMask:   initialTableSize - 1,
		cache:       make([]cacheEntry, initialCacheSize),
		cacheMask:   initialCacheSize - 1,
		cacheGrowAt: initialCacheSize,
		maskIDs:     make(map[string]int32),
		numVars:     numVars,
		var2level:   make([]int32, numVars),
		level2var:   make([]int32, numVars),
		varPos:      make([]Ref, numVars),
		varNeg:      make([]Ref, numVars),
	}
	for i := 0; i < numVars; i++ {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	// ids 0 and 1 are the terminals.
	m.nodes = append(m.nodes,
		node{level: terminalLevel, lo: 0, hi: 0},
		node{level: terminalLevel, lo: 1, hi: 1})
	m.extRef = append(m.extRef, 0xffff, 0xffff)
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live nodes (including terminals). It shrinks
// when GC reclaims dead nodes.
func (m *Manager) Size() int { return m.live + 2 }

// Order returns the current variable order: element l is the variable
// tested at level l.
func (m *Manager) Order() []int {
	out := make([]int, m.numVars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// Level returns the current order position of variable v.
func (m *Manager) Level(v int) int {
	m.checkVar(v)
	return int(m.var2level[v])
}

// Var returns the function of variable i. Projection functions are pinned:
// they survive garbage collection without explicit references.
func (m *Manager) Var(i int) Ref {
	m.checkVar(i)
	if r := m.varPos[i]; r != 0 {
		return r
	}
	r := m.mk(m.var2level[i], False, True)
	m.varPos[i] = r
	return r
}

// NVar returns the negation of variable i.
func (m *Manager) NVar(i int) Ref {
	m.checkVar(i)
	if r := m.varNeg[i]; r != 0 {
		return r
	}
	r := m.mk(m.var2level[i], True, False)
	m.varNeg[i] = r
	return r
}

// checkVar guards the public Var/Cube entry points with an invariant panic:
// variable indexes are fixed at New time, so an out-of-range index is a bug
// in the calling encoder.
func (m *Manager) checkVar(i int) {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
}

// hashNode FNV-mixes the node triple into a table index seed.
func hashNode(level, lo, hi int32) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	h = (h ^ uint32(level)) * prime
	h = (h ^ uint32(lo)) * prime
	h = (h ^ uint32(hi)) * prime
	return h ^ h>>16
}

// mk returns the canonical node (level, lo, hi), consulting and updating
// the open-addressed unique table.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	m.stats.UniqueLookups++
	h := hashNode(level, int32(lo), int32(hi)) & m.tableMask
	insert := int32(-2)
	for {
		id := m.table[h]
		if id == 0 {
			break
		}
		if id == tombstone {
			if insert == -2 {
				insert = int32(h)
			}
		} else {
			n := &m.nodes[id]
			if n.level == level && n.lo == int32(lo) && n.hi == int32(hi) {
				m.stats.UniqueHits++
				return Ref(id)
			}
		}
		h = (h + 1) & m.tableMask
	}
	id := m.alloc(level, lo, hi)
	if insert >= 0 {
		m.table[insert] = id
		m.tableTombs--
	} else {
		m.table[h] = id
	}
	m.tableUsed++
	if (m.tableUsed+m.tableTombs)*4 >= len(m.table)*3 {
		m.rehash(m.tableUsed*2 >= len(m.table))
	}
	return Ref(id)
}

// alloc claims an arena slot for a fresh node.
func (m *Manager) alloc(level int32, lo, hi Ref) int32 {
	var id int32
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
		m.nodes[id] = node{level: level, lo: int32(lo), hi: int32(hi)}
		m.extRef[id] = 0
	} else {
		id = int32(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, lo: int32(lo), hi: int32(hi)})
		m.extRef = append(m.extRef, 0)
	}
	m.live++
	if m.live > m.stats.PeakLive {
		m.stats.PeakLive = m.live
	}
	if m.live > m.cacheGrowAt {
		m.growCache()
	}
	return id
}

const tombstone = -1

// rehash rebuilds the unique table from the arena, doubling capacity when
// grow is set (tombstones are dropped either way).
func (m *Manager) rehash(grow bool) {
	size := len(m.table)
	if grow {
		size *= 2
	}
	m.table = make([]int32, size)
	m.tableMask = uint32(size - 1)
	m.tableUsed = 0
	m.tableTombs = 0
	for id := int32(2); id < int32(len(m.nodes)); id++ {
		if m.nodes[id].level != freeLevel {
			m.tableInsert(id)
		}
	}
}

// tableInsert adds a node id (not currently present) to the unique table.
func (m *Manager) tableInsert(id int32) {
	n := &m.nodes[id]
	h := hashNode(n.level, n.lo, n.hi) & m.tableMask
	for m.table[h] != 0 && m.table[h] != tombstone {
		h = (h + 1) & m.tableMask
	}
	if m.table[h] == tombstone {
		m.tableTombs--
	}
	m.table[h] = id
	m.tableUsed++
}

// tableDelete removes a node id from the unique table, leaving a tombstone.
func (m *Manager) tableDelete(id int32) {
	n := &m.nodes[id]
	h := hashNode(n.level, n.lo, n.hi) & m.tableMask
	for {
		cur := m.table[h]
		if cur == id {
			m.table[h] = tombstone
			m.tableUsed--
			m.tableTombs++
			return
		}
		if cur == 0 {
			// Deleting a node the unique table does not hold means the
			// table and the node store disagree — corruption that must
			// surface immediately, not be papered over.
			panic("bdd: tableDelete of absent node")
		}
		h = (h + 1) & m.tableMask
	}
}

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }
func (m *Manager) lo(f Ref) Ref      { return Ref(m.nodes[f].lo) }
func (m *Manager) hi(f Ref) Ref      { return Ref(m.nodes[f].hi) }

// ITE computes if-then-else(f, g, h), the universal connective.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case f == g: // ite(f, f, h) = ite(f, 1, h)
		g = True
	case f == h: // ite(f, g, f) = ite(f, g, 0)
		h = False
	}
	if r, ok := m.cacheGet(opITE, int32(f), int32(g), int32(h)); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.cachePut(opITE, int32(f), int32(g), int32(h), int32(r))
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	if m.level(f) != level {
		return f, f
	}
	return m.lo(f), m.hi(f)
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Diff returns f ∧ ¬g — the frontier-set simplification primitive of
// symbolic traversal (new states = image \ reached).
func (m *Manager) Diff(f, g Ref) Ref { return m.ITE(g, False, f) }

// AndN folds And over the arguments (True for none).
func (m *Manager) AndN(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.And(r, f)
	}
	return r
}

// OrN folds Or over the arguments (False for none).
func (m *Manager) OrN(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.Or(r, f)
	}
	return r
}

// Restrict fixes variable v to value in f (Shannon cofactor).
func (m *Manager) Restrict(f Ref, v int, value bool) Ref {
	m.checkVar(v)
	val := int32(0)
	if value {
		val = 1
	}
	return m.restrict(f, m.var2level[v], val)
}

func (m *Manager) restrict(f Ref, lv, val int32) Ref {
	l := m.level(f)
	if l > lv {
		return f
	}
	if l == lv {
		if val != 0 {
			return m.hi(f)
		}
		return m.lo(f)
	}
	if r, ok := m.cacheGet(opRestrict, int32(f), lv, val); ok {
		return r
	}
	r := m.mk(l, m.restrict(m.lo(f), lv, val), m.restrict(m.hi(f), lv, val))
	m.cachePut(opRestrict, int32(f), lv, val, int32(r))
	return r
}

// Exists existentially quantifies the given variables out of f.
func (m *Manager) Exists(f Ref, vars []int) Ref {
	return m.quantify(f, m.internMask(vars), opExists)
}

// Forall universally quantifies the given variables out of f.
func (m *Manager) Forall(f Ref, vars []int) Ref {
	return m.quantify(f, m.internMask(vars), opForall)
}

// internMask returns the id of the interned variable bitmask for vars,
// allocating only on first sight of a mask. Repeated quantifications over
// the same variable set are allocation-free.
func (m *Manager) internMask(vars []int) int32 {
	words := (m.numVars + 63) / 64
	if cap(m.maskScratch) < words*8 {
		m.maskScratch = make([]byte, words*8)
	}
	buf := m.maskScratch[:words*8]
	for i := range buf {
		buf[i] = 0
	}
	for _, v := range vars {
		m.checkVar(v)
		buf[v/8] |= 1 << uint(v%8)
	}
	if id, ok := m.maskIDs[string(buf)]; ok {
		return id
	}
	mask := make([]uint64, words)
	for w := 0; w < words; w++ {
		var x uint64
		for b := 0; b < 8; b++ {
			x |= uint64(buf[w*8+b]) << uint(8*b)
		}
		mask[w] = x
	}
	id := int32(len(m.masks))
	m.masks = append(m.masks, mask)
	m.maskIDs[string(buf)] = id
	return id
}

// maskHasLevel reports whether the variable at order level l is in mask id.
func (m *Manager) maskHasLevel(id, l int32) bool {
	v := m.level2var[l]
	return m.masks[id][v>>6]&(1<<uint(v&63)) != 0
}

func (m *Manager) quantify(f Ref, maskID int32, op uint32) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.cacheGet(op, int32(f), maskID, 0); ok {
		return r
	}
	l := m.level(f)
	lo := m.quantify(m.lo(f), maskID, op)
	hi := m.quantify(m.hi(f), maskID, op)
	var r Ref
	if m.maskHasLevel(maskID, l) {
		if op == opExists {
			r = m.Or(lo, hi)
		} else {
			r = m.And(lo, hi)
		}
	} else {
		r = m.mk(l, lo, hi)
	}
	m.cachePut(op, int32(f), maskID, 0, int32(r))
	return r
}

// AndExists computes ∃vars (f ∧ g) without building the full conjunction
// (the relational-product operation of symbolic traversal).
func (m *Manager) AndExists(f, g Ref, vars []int) Ref {
	return m.andExists(f, g, m.internMask(vars))
}

func (m *Manager) andExists(f, g Ref, maskID int32) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True:
		return m.quantify(g, maskID, opExists)
	case g == True:
		return m.quantify(f, maskID, opExists)
	case f == g:
		return m.quantify(f, maskID, opExists)
	}
	if g < f { // ∧ is commutative: canonicalize the cache key
		f, g = g, f
	}
	if r, ok := m.cacheGet(opAndExists, int32(f), int32(g), maskID); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	var r Ref
	if m.maskHasLevel(maskID, top) {
		a := m.andExists(f0, g0, maskID)
		if a == True {
			r = True
		} else {
			r = m.Or(a, m.andExists(f1, g1, maskID))
		}
	} else {
		r = m.mk(top, m.andExists(f0, g0, maskID), m.andExists(f1, g1, maskID))
	}
	m.cachePut(opAndExists, int32(f), int32(g), maskID, int32(r))
	return r
}

// Eval evaluates f under the assignment (bit i of env = variable i).
func (m *Manager) Eval(f Ref, env uint64) bool {
	for f != True && f != False {
		v := m.level2var[m.level(f)]
		if env&(1<<uint(v)) != 0 {
			f = m.hi(f)
		} else {
			f = m.lo(f)
		}
	}
	return f == True
}

// EvalVec evaluates f under the assignment env[i] = value of variable i.
// Unlike Eval it is not limited to 64 variables; variables at or beyond
// len(env) read as false.
func (m *Manager) EvalVec(f Ref, env []bool) bool {
	for f != True && f != False {
		v := int(m.level2var[m.level(f)])
		if v < len(env) && env[v] {
			f = m.hi(f)
		} else {
			f = m.lo(f)
		}
	}
	return f == True
}

// AnySatVec returns one satisfying assignment as a vector over NumVars
// variables, or ok=false for the constant-false function. Unlike AnySat it
// is not limited to 64 variables. Variables skipped on the chosen branch
// stay false, so the assignment is deterministic for a fixed diagram.
func (m *Manager) AnySatVec(f Ref) ([]bool, bool) {
	if f == False {
		return nil, false
	}
	env := make([]bool, m.numVars)
	for f != True {
		if m.lo(f) != False {
			f = m.lo(f)
			continue
		}
		env[m.level2var[m.level(f)]] = true
		f = m.hi(f)
	}
	return env, true
}

// SatCount returns SatCountBig rounded to a float64, for display: it is
// exact only below 2^53 assignments.
func (m *Manager) SatCount(f Ref) float64 {
	c, _ := new(big.Float).SetInt(m.SatCountBig(f)).Float64()
	return c
}

// SatCountBig returns the exact number of satisfying assignments over all
// NumVars variables as a big integer.
func (m *Manager) SatCountBig(f Ref) *big.Int {
	memo := map[Ref]*big.Int{}
	// varLevel treats terminals as sitting below the last variable.
	varLevel := func(f Ref) int {
		if f == True || f == False {
			return m.numVars
		}
		return int(m.level(f))
	}
	// below(f) counts assignments of the variables at levels
	// [level(f), NumVars) that satisfy f; skipped levels on each branch
	// contribute a factor of two per variable.
	var below func(f Ref) *big.Int
	below = func(f Ref) *big.Int {
		switch f {
		case False:
			return big.NewInt(0)
		case True:
			return big.NewInt(1)
		}
		if c, ok := memo[f]; ok {
			return c
		}
		l := int(m.level(f))
		c := new(big.Int)
		for _, br := range []Ref{m.lo(f), m.hi(f)} {
			sub := new(big.Int).Set(below(br))
			c.Add(c, sub.Lsh(sub, uint(varLevel(br)-l-1)))
		}
		memo[f] = c
		return c
	}
	res := new(big.Int).Set(below(f))
	return res.Lsh(res, uint(varLevel(f)))
}

// Support returns the variables f depends on, ascending.
func (m *Manager) Support(f Ref) []int {
	seen := map[Ref]bool{}
	vars := map[int32]bool{}
	var walk func(Ref)
	walk = func(g Ref) {
		if g == True || g == False || seen[g] {
			return
		}
		seen[g] = true
		vars[m.level2var[m.level(g)]] = true
		walk(m.lo(g))
		walk(m.hi(g))
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(v))
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// AnySat returns one satisfying assignment (as a bit vector over NumVars),
// or ok=false for the constant-false function.
func (m *Manager) AnySat(f Ref) (uint64, bool) {
	if f == False {
		return 0, false
	}
	var env uint64
	for f != True {
		if m.lo(f) != False {
			f = m.lo(f)
			continue
		}
		env |= 1 << uint(m.level2var[m.level(f)])
		f = m.hi(f)
	}
	return env, true
}

// Cube builds the conjunction of literals: vars[i] at polarity pols[i].
// Mismatched slice lengths panic — a malformed call, not a runtime state.
func (m *Manager) Cube(vars []int, pols []bool) Ref {
	if len(vars) != len(pols) {
		panic("bdd: vars/pols length mismatch")
	}
	r := True
	for i, v := range vars {
		if pols[i] {
			r = m.And(r, m.Var(v))
		} else {
			r = m.And(r, m.NVar(v))
		}
	}
	return r
}
