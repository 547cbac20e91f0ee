package bdd

import "math"

// The operation cache is a single direct-mapped, lossy table shared by all
// memoized operations. Each entry stores the op tag, the (up to) three
// int32 key operands, and the result. Collisions overwrite: the cache
// bounds memory regardless of how long a traversal runs, trading the
// occasional recomputation for it. The cache doubles (up to maxCacheSize)
// as the arena grows so hit rates stay useful on large traversals.

// Op tags. 0 marks an empty entry.
const (
	opITE uint32 = iota + 1
	opExists
	opForall
	opAndExists
	opRestrict
)

type cacheEntry struct {
	op      uint32
	f, g, h int32
	r       int32
}

// cacheIndex mixes the key into a cache slot index.
func (m *Manager) cacheIndex(op uint32, f, g, h int32) uint32 {
	x := uint64(uint32(f))*0x9e3779b97f4a7c15 ^
		uint64(uint32(g))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(h))*0x165667b19e3779f9 ^
		uint64(op)*0x27d4eb2f165667c5
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return uint32(x) & m.cacheMask
}

func (m *Manager) cacheGet(op uint32, f, g, h int32) (Ref, bool) {
	m.stats.CacheLookups++
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	if e.op == op && e.f == f && e.g == g && e.h == h {
		m.stats.CacheHits++
		return Ref(e.r), true
	}
	return False, false
}

func (m *Manager) cachePut(op uint32, f, g, h, r int32) {
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	*e = cacheEntry{op: op, f: f, g: g, h: h, r: r}
}

// growCache doubles the cache when the live arena outgrows it, dropping
// all memoized entries (they are recomputable by construction).
func (m *Manager) growCache() {
	size := len(m.cache)
	for size < maxCacheSize && m.live > size {
		size *= 2
	}
	if size == len(m.cache) {
		m.cacheGrowAt = math.MaxInt // at capacity: never grow again
		return
	}
	m.cache = make([]cacheEntry, size)
	m.cacheMask = uint32(size - 1)
	m.cacheGrowAt = size
}

// clearCache drops every memoized entry. Called after GC (entries may
// reference reclaimed nodes) and after reordering (freed slots may have
// been recycled during swaps).
func (m *Manager) clearCache() {
	clear(m.cache)
}
