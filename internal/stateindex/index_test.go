package stateindex

import (
	"reflect"
	"testing"
)

// keyOf returns a width-word key derived from i, distinct for distinct i.
func keyOf(i, width int) []uint64 {
	k := make([]uint64, width)
	for w := range k {
		k[w] = uint64(i) * uint64(w+1) * 0x10001
	}
	k[width-1] ^= uint64(i) << 7
	return k
}

func TestInsertionOrderIDs(t *testing.T) {
	x := New(3)
	for i := 0; i < 1000; i++ {
		id, added := x.Visit(keyOf(i, 3))
		if !added || id != int32(i) {
			t.Fatalf("key %d: id %d added %v, want id %d added", i, id, added, i)
		}
	}
	for i := 999; i >= 0; i-- {
		id, added := x.Visit(keyOf(i, 3))
		if added || id != int32(i) {
			t.Fatalf("revisit %d: id %d added %v", i, id, added)
		}
		if !reflect.DeepEqual(x.Key(id), keyOf(i, 3)) {
			t.Fatalf("Key(%d) = %v, want %v", id, x.Key(id), keyOf(i, 3))
		}
	}
	if x.Len() != 1000 || len(x.Keys()) != 3000 {
		t.Fatalf("Len %d, slab %d words", x.Len(), len(x.Keys()))
	}
}

// TestSlotCollisions fills a small table with keys that all hash to the
// same home slot: every one must probe past the others, and keys that
// differ only in the last word must stay apart.
func TestSlotCollisions(t *testing.T) {
	x := New(2)
	home := hash(keyOf(0, 2)) & (minSlots - 1)
	var keys [][]uint64
	for i := 0; len(keys) < 40; i++ {
		if k := keyOf(i, 2); hash(k)&(minSlots-1) == home {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if id, added := x.Visit(k); !added || id != int32(i) {
			t.Fatalf("colliding key %d: id %d added %v", i, id, added)
		}
	}
	if len(x.slots) != minSlots {
		t.Fatalf("table grew to %d slots for %d keys", len(x.slots), len(keys))
	}
	for i, k := range keys {
		if id, added := x.Visit(k); added || id != int32(i) {
			t.Fatalf("colliding key %d revisited: id %d added %v", i, id, added)
		}
		near := []uint64{k[0], k[1] ^ 1}
		if id, _ := x.Visit(near); id == int32(i) {
			t.Fatalf("key %v found as %v", near, k)
		}
	}
}

// TestTagCollision inserts two keys whose hashes agree on the slot tag
// (the high 32 bits) and on the home slot of the 64-slot table: the slab
// comparison must keep them apart.
func TestTagCollision(t *testing.T) {
	a, b := []uint64{0x7e2383159cd7e24e}, []uint64{0x7a75cd2538a9e462}
	ha, hb := hash(a), hash(b)
	if ha>>32 != hb>>32 || ha&(minSlots-1) != hb&(minSlots-1) {
		t.Fatalf("hashes %#x and %#x no longer collide", ha, hb)
	}
	x := New(1)
	if id, added := x.Visit(a); !added || id != 0 {
		t.Fatalf("first key: id %d added %v", id, added)
	}
	if id, added := x.Visit(b); !added || id != 1 {
		t.Fatalf("colliding key: id %d added %v, want a new id 1", id, added)
	}
}

// TestGrowth inserts across many resizes and checks every id survives;
// Reset keeps the grown table but numbers from 0 again.
func TestGrowth(t *testing.T) {
	x := New(1)
	const n = 100_000
	for i := 0; i < n; i++ {
		x.Visit(keyOf(i, 1))
	}
	if len(x.slots) < n || 4*n > 3*len(x.slots) {
		t.Fatalf("%d slots for %d keys", len(x.slots), n)
	}
	for i := 0; i < n; i += 97 {
		if id, added := x.Visit(keyOf(i, 1)); added || id != int32(i) {
			t.Fatalf("key %d: id %d added %v", i, id, added)
		}
	}
	x.Reset(2, 0)
	if x.Len() != 0 {
		t.Fatalf("Len %d after Reset", x.Len())
	}
	if id, added := x.Visit(keyOf(5, 2)); !added || id != 0 {
		t.Fatalf("first key after Reset: id %d added %v", id, added)
	}
}

// TestLimit pins that insertion is refused exactly at the limit while
// present keys are still found.
func TestLimit(t *testing.T) {
	x := New(1)
	x.Reset(1, 5)
	for i := 0; i < 5; i++ {
		if id, added := x.Visit(keyOf(i, 1)); !added || id != int32(i) {
			t.Fatalf("key %d: id %d added %v", i, id, added)
		}
	}
	if id, added := x.Visit(keyOf(5, 1)); added || id != -1 {
		t.Fatalf("key past the limit: id %d added %v, want -1", id, added)
	}
	if id, added := x.Visit(keyOf(3, 1)); added || id != 3 {
		t.Fatalf("present key at the limit: id %d added %v", id, added)
	}
	if x.Len() != 5 {
		t.Fatalf("Len %d, want 5", x.Len())
	}
}

// TestEmptyKeys covers width 0, the markings of a net without places: the
// one empty key gets id 0.
func TestEmptyKeys(t *testing.T) {
	x := New(0)
	if id, added := x.Visit(nil); !added || id != 0 {
		t.Fatalf("first empty key: id %d added %v", id, added)
	}
	if id, added := x.Visit(nil); added || id != 0 || x.Len() != 1 {
		t.Fatalf("second empty key: id %d added %v len %d", id, added, x.Len())
	}
}

// TestReserve pins that n distinct keys fit a Reserve(n) index without an
// allocation, get the ids and slab of an index that grew to hold them, and
// that Reserve clamps n to the index's limit.
func TestReserve(t *testing.T) {
	const n, width = 5000, 3
	keys := make([][]uint64, n)
	for i := range keys {
		keys[i] = keyOf(i, width)
	}
	grown := New(width)
	for _, k := range keys {
		grown.Visit(k)
	}
	// AllocsPerRun calls its function once more than it averages over, and
	// each call fills its own reserved index.
	reserved := make([]*Index, 4)
	for i := range reserved {
		reserved[i] = New(width)
		reserved[i].Reserve(n)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(reserved)-1, func() {
		x := reserved[next]
		next++
		for i, k := range keys {
			if id, added := x.Visit(k); !added || id != int32(i) {
				t.Fatalf("key %d: id %d added %v", i, id, added)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d visits after Reserve(%d) allocate %.0f times, want 0", n, n, allocs)
	}
	x := reserved[0]
	if !reflect.DeepEqual(x.Keys(), grown.Keys()) {
		t.Fatal("reserved index's slab differs from the grown index's")
	}
	for i := 0; i < n; i += 37 {
		if id, added := x.Visit(keys[i]); added || id != int32(i) {
			t.Fatalf("key %d revisited: id %d added %v", i, id, added)
		}
	}
	if len(x.slots) != 8192 || cap(x.keys) != n*width {
		t.Fatalf("Reserve(%d) gave %d slots and %d slab words, want 8192 and %d",
			n, len(x.slots), cap(x.keys), n*width)
	}

	limited := New(width)
	limited.Reset(width, 10)
	limited.Reserve(1 << 30)
	if len(limited.slots) != minSlots || cap(limited.keys) != 10*width {
		t.Fatalf("Reserve past a limit of 10 gave %d slots and %d slab words, want %d and %d",
			len(limited.slots), cap(limited.keys), minSlots, 10*width)
	}
}
