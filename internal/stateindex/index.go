// Package stateindex is the visited set of the explicit explorers: an
// open-addressed hash index from fixed-width keys of 64-bit words to dense
// int32 ids handed out in insertion order. The keys live in one slab, so a
// state costs its key's words and one table slot, and no allocation.
//
// Ids never depend on the hash, so an explorer that numbers states by
// insertion numbers them deterministically.
package stateindex

import "math"

// minSlots is the table size of a fresh or reset index. Small nets, whose
// state graphs the encoding search rebuilds tens of times a search, never
// grow past a few hundred slots.
const minSlots = 64

// Index maps width-word keys to ids 0, 1, 2, ... in insertion order. The
// zero value is not usable; call New or Reset first. An Index is not safe
// for concurrent use.
type Index struct {
	width int
	limit int
	n     int // keys held
	// keys is the slab: the key of id i at [i*width, (i+1)*width).
	keys []uint64
	// slots is the open-addressed table: 0 for an empty slot, else the
	// key's hash with its low 32 bits replaced by id+1.
	slots []uint64
}

// New returns an empty index of width-word keys with no insertion limit.
func New(width int) *Index {
	x := &Index{}
	x.Reset(width, 0)
	return x
}

// Reset empties the index for width-word keys, keeping its storage. Once it
// holds limit keys it refuses new ones; limit <= 0 means no limit.
func (x *Index) Reset(width, limit int) {
	if limit <= 0 || limit > math.MaxInt32 {
		limit = math.MaxInt32
	}
	x.width, x.limit, x.n = width, limit, 0
	x.keys = x.keys[:0]
	if x.slots == nil {
		x.slots = make([]uint64, minSlots)
	} else {
		clear(x.slots)
	}
}

// Reserve sizes an empty index so that n keys fit without growing: the
// table takes the smallest power-of-two size of at least minSlots slots
// that holds n keys under the 3/4 load limit, and the slab room for n keys.
// n is clamped to the index's limit; storage already larger is kept. It is
// a hint: keys past n grow the index as usual.
func (x *Index) Reserve(n int) {
	if x.n != 0 {
		panic("stateindex: Reserve on a non-empty index")
	}
	n = min(n, x.limit)
	slots := minSlots
	for 4*n > 3*slots {
		slots *= 2
	}
	if slots > len(x.slots) {
		x.slots = make([]uint64, slots)
	}
	if cap(x.keys) < n*x.width {
		x.keys = make([]uint64, 0, n*x.width)
	}
}

// Len returns the number of keys.
func (x *Index) Len() int { return x.n }

// Width returns the number of words per key.
func (x *Index) Width() int { return x.width }

// Key returns the key of id. The slice stays valid, unchanged, after later
// insertions.
func (x *Index) Key(id int32) []uint64 {
	i := int(id) * x.width
	return x.keys[i : i+x.width : i+x.width]
}

// Keys returns the slab: every key in id order, width words apiece.
func (x *Index) Keys() []uint64 { return x.keys }

// Visit returns the id of key and false when it is present. Otherwise it
// adds a copy of key under the next id and returns that id and true, or
// returns -1 and false when the index already holds its limit of keys.
func (x *Index) Visit(key []uint64) (int32, bool) {
	h := hash(key)
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		s := x.slots[i]
		if s>>32 != h>>32 {
			continue
		}
		id := int32(uint32(s) - 1)
		if equal(x.Key(id), key) {
			return id, false
		}
	}
	n := x.n
	if n >= x.limit {
		return -1, false
	}
	x.keys = append(x.keys, key...)
	x.n++
	x.slots[i] = h&^math.MaxUint32 | uint64(x.n)
	if 4*x.n > 3*len(x.slots) {
		x.grow()
	}
	return int32(n), true
}

// grow doubles the table and reinserts every key. It also makes the slab
// room for the keys the new table takes before it grows again, so the slab
// doubles with the table instead of growing by append's 1.25×.
func (x *Index) grow() {
	x.slots = make([]uint64, 2*len(x.slots))
	if room := (3*len(x.slots)/4 + 1) * x.width; cap(x.keys) < room {
		x.keys = append(make([]uint64, 0, room), x.keys...)
	}
	mask := uint64(len(x.slots) - 1)
	for id := range x.n {
		h := hash(x.Key(int32(id)))
		i := h & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = h&^math.MaxUint32 | uint64(id+1)
	}
}

func equal(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// hash mixes the key's words with a fixed multiplier and finishes with the
// murmur3 64-bit finalizer, so both the low bits (the slot) and the high
// bits (the tag kept in the slot) depend on every word.
func hash(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
