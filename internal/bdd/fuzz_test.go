package bdd

import (
	"math/rand"
	"testing"
)

// fuzzVars is the variable universe of the fuzz machine: 8 variables, so a
// function's full truth table fits in 256 bits and the dense oracle below
// is exact.
const fuzzVars = 8

// tt is a dense truth table over fuzzVars variables: bit e of word e/64 is
// the function value under environment e (bit i of e = variable i).
type tt [4]uint64

func ttVar(v int) tt {
	var t tt
	for e := 0; e < 256; e++ {
		if e>>v&1 == 1 {
			t[e/64] |= 1 << (e % 64)
		}
	}
	return t
}

func (t tt) bit(e int) bool { return t[e/64]>>(e%64)&1 == 1 }

func (t tt) not() tt {
	return tt{^t[0], ^t[1], ^t[2], ^t[3]}
}

func (t tt) and(u tt) tt {
	return tt{t[0] & u[0], t[1] & u[1], t[2] & u[2], t[3] & u[3]}
}

func (t tt) or(u tt) tt {
	return tt{t[0] | u[0], t[1] | u[1], t[2] | u[2], t[3] | u[3]}
}

func (t tt) xor(u tt) tt {
	return tt{t[0] ^ u[0], t[1] ^ u[1], t[2] ^ u[2], t[3] ^ u[3]}
}

// restrict fixes variable v to val: every environment reads the value the
// function takes with bit v forced.
func (t tt) restrict(v int, val bool) tt {
	var r tt
	for e := 0; e < 256; e++ {
		fixed := e &^ (1 << v)
		if val {
			fixed |= 1 << v
		}
		if t.bit(fixed) {
			r[e/64] |= 1 << (e % 64)
		}
	}
	return r
}

func (t tt) exists(vars []int) tt {
	for _, v := range vars {
		t = t.restrict(v, false).or(t.restrict(v, true))
	}
	return t
}

func (t tt) forall(vars []int) tt {
	for _, v := range vars {
		t = t.restrict(v, false).and(t.restrict(v, true))
	}
	return t
}

// maskVars decodes a quantification mask byte into a variable list.
func maskVars(b byte) []int {
	var vars []int
	for v := 0; v < fuzzVars; v++ {
		if b>>v&1 == 1 {
			vars = append(vars, v)
		}
	}
	return vars
}

// mintermList lists t's minterms shuffled by seed, with every third one
// repeated and the repeat carrying seed in the bits above fuzzVars:
// FromMinterms must ignore order, duplicates and out-of-range bits.
func mintermList(t tt, seed byte) []uint64 {
	var ms []uint64
	for e := 0; e < 256; e++ {
		if t.bit(e) {
			ms = append(ms, uint64(e))
			if e%3 == int(seed)%3 {
				ms = append(ms, uint64(e)|uint64(seed)<<fuzzVars)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// fuzzEntry is one slot of the fuzz machine's stack: a managed Ref (held
// live via IncRef) plus its independently computed truth table.
type fuzzEntry struct {
	ref Ref
	tab tt
}

// mintermOp is the lowest op byte that rebuilds the top function from its
// minterm list. Every other op byte selects an op by op%18; the committed
// corpus uses no op byte this high, so each of its inputs keeps its meaning.
const mintermOp = 0xfc

// FuzzBDDOps drives random operation sequences through the kernel and
// checks every intermediate result against a dense truth-table oracle,
// plus the canonicity invariant (equal functions ⇒ equal Refs), before and
// after garbage collection and sifting. FromMinterms rebuilds the top
// function from its minterm list, so canonicity also pins it to the
// current variable order.
func FuzzBDDOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})                                     // push a few vars
	f.Add([]byte{0, 8, 4, 10, 0x0f})                              // x0, ~x0, and, exists{0..3}
	f.Add([]byte{0, 1, 4, 2, 3, 5, 6, 16})                        // and, or, xor, gc
	f.Add([]byte{0, 1, 2, 12, 0x07, 17, 0, 1, 4, 16, 17})         // andexists, sift, rebuild, gc, sift
	f.Add([]byte{7, 6, 5, 4, 13, 9, 14, 0x55, 15, 0xaa})          // ite, not, restricts, quantifiers
	f.Add([]byte{0, 1, 4, 2, 5, 3, 5, 16, 4, 5, 6, 17, 11})       // grow then reorder then diff
	f.Add([]byte{0, 20, 4, 1, 21, 4, 13, mintermOp, 7})           // minterm rebuild of an ite
	f.Add([]byte{0, 20, 4, 1, 21, 5, 6, 17, mintermOp, 0x2a, 16}) // reorder, then minterm rebuild
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // keep each case cheap; long inputs add no new structure
		}
		m := New(fuzzVars)
		var stack []fuzzEntry

		push := func(r Ref, tab tt) {
			if len(stack) >= 16 {
				old := stack[0]
				m.DecRef(old.ref)
				copy(stack, stack[1:])
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, fuzzEntry{m.IncRef(r), tab})
		}
		// pop returns entries without releasing them: operands stay on the
		// stack so GC pressure comes only from dropped slots.
		peek := func(i int) fuzzEntry { return stack[len(stack)-1-i] }

		check := func(when string) {
			canon := map[tt]Ref{}
			for _, e := range stack {
				for env := 0; env < 256; env++ {
					if m.Eval(e.ref, uint64(env)) != e.tab.bit(env) {
						t.Fatalf("%s: Eval(%d, %08b) disagrees with oracle", when, e.ref, env)
					}
				}
				if prev, ok := canon[e.tab]; ok && prev != e.ref {
					t.Fatalf("%s: canonicity violated: refs %d and %d compute the same function", when, prev, e.ref)
				}
				canon[e.tab] = e.ref
			}
		}

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for i < len(data) {
			op := next()
			if op >= mintermOp { // rebuild the top function from its minterm list
				if len(stack) >= 1 {
					a := peek(0)
					push(m.FromMinterms(mintermList(a.tab, next())), a.tab)
				}
				continue
			}
			switch op % 18 {
			case 0, 1, 2, 3: // push variable (two opcodes each for weight)
				v := int(op) % fuzzVars
				push(m.Var(v), ttVar(v))
			case 4: // and
				if len(stack) >= 2 {
					a, b := peek(0), peek(1)
					push(m.And(a.ref, b.ref), a.tab.and(b.tab))
				}
			case 5: // or
				if len(stack) >= 2 {
					a, b := peek(0), peek(1)
					push(m.Or(a.ref, b.ref), a.tab.or(b.tab))
				}
			case 6: // xor
				if len(stack) >= 2 {
					a, b := peek(0), peek(1)
					push(m.Xor(a.ref, b.ref), a.tab.xor(b.tab))
				}
			case 7: // not
				if len(stack) >= 1 {
					a := peek(0)
					push(m.Not(a.ref), a.tab.not())
				}
			case 8: // negated variable
				v := int(next()) % fuzzVars
				push(m.NVar(v), ttVar(v).not())
			case 9, 10: // restrict var to op-determined polarity
				if len(stack) >= 1 {
					a := peek(0)
					v := int(next()) % fuzzVars
					val := op%18 == 10
					push(m.Restrict(a.ref, v, val), a.tab.restrict(v, val))
				}
			case 11: // diff
				if len(stack) >= 2 {
					a, b := peek(0), peek(1)
					push(m.Diff(a.ref, b.ref), a.tab.and(b.tab.not()))
				}
			case 12: // andexists
				if len(stack) >= 2 {
					a, b := peek(0), peek(1)
					vars := maskVars(next())
					push(m.AndExists(a.ref, b.ref, vars), a.tab.and(b.tab).exists(vars))
				}
			case 13: // ite
				if len(stack) >= 3 {
					a, b, c := peek(0), peek(1), peek(2)
					ot := a.tab.and(b.tab).or(a.tab.not().and(c.tab))
					push(m.ITE(a.ref, b.ref, c.ref), ot)
				}
			case 14: // exists
				if len(stack) >= 1 {
					a := peek(0)
					vars := maskVars(next())
					push(m.Exists(a.ref, vars), a.tab.exists(vars))
				}
			case 15: // forall
				if len(stack) >= 1 {
					a := peek(0)
					vars := maskVars(next())
					push(m.Forall(a.ref, vars), a.tab.forall(vars))
				}
			case 16: // garbage collect, then re-verify every live Ref
				m.GC()
				check("after GC")
			case 17: // dynamic reorder, then re-verify every live Ref
				m.Sift()
				check("after Sift")
			}
		}
		check("final")

		// Releasing every external reference and collecting must return the
		// manager to just its pinned projection functions.
		for _, e := range stack {
			m.DecRef(e.ref)
		}
		m.GC()
		if m.Size() > 2+2*fuzzVars+2 {
			t.Fatalf("after full release: %d nodes still live", m.Size())
		}
	})
}
