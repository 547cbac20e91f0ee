// Package boolmin implements two-level Boolean minimization: cubes and
// covers, exact prime generation driven by the off-set (the primes through
// each on-minterm are the minimal hitting sets of its distances to the
// off-minterms, so no don't-care is ever enumerated), covering via
// essential primes plus Petrick's method (small instances) or a greedy
// heuristic, espresso-style expansion for wide functions, and the algebraic
// factoring primitives (kernels, division) used by logic decomposition. It
// is the stand-in for espresso/SIS in the flow (see DESIGN.md
// substitutions).
package boolmin

import (
	"math/bits"
	"sort"
	"strings"
)

// Cube is a product term over up to 64 variables. Bit i of Care selects
// whether variable i appears; bit i of Val gives its polarity. Bits of Val
// outside Care must be zero (maintained by all constructors).
type Cube struct {
	Val, Care uint64
}

// FullCube returns the universal cube (no literals, covers everything).
func FullCube() Cube { return Cube{} }

// MintermCube returns the cube of a single minterm over n variables.
func MintermCube(m uint64, n int) Cube {
	mask := maskN(n)
	return Cube{Val: m & mask, Care: mask}
}

func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// WithLiteral returns c extended with variable v at polarity pos.
func (c Cube) WithLiteral(v int, pos bool) Cube {
	c.Care |= 1 << uint(v)
	if pos {
		c.Val |= 1 << uint(v)
	} else {
		c.Val &^= 1 << uint(v)
	}
	return c
}

// Literals returns the number of literals in the cube.
func (c Cube) Literals() int { return bits.OnesCount64(c.Care) }

// Contains reports whether the minterm lies inside the cube.
func (c Cube) Contains(m uint64) bool { return m&c.Care == c.Val }

// Covers reports whether c covers d (every minterm of d is in c).
func (c Cube) Covers(d Cube) bool {
	return c.Care&^d.Care == 0 && (c.Val^d.Val)&c.Care == 0
}

// Intersects reports whether the two cubes share a minterm.
func (c Cube) Intersects(d Cube) bool {
	shared := c.Care & d.Care
	return (c.Val^d.Val)&shared == 0
}

// String renders the cube as a positional pattern over n variables:
// '1', '0' or '-' per variable, variable 0 first.
func (c Cube) String(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		switch {
		case c.Care&(1<<uint(i)) == 0:
			b[i] = '-'
		case c.Val&(1<<uint(i)) != 0:
			b[i] = '1'
		default:
			b[i] = '0'
		}
	}
	return string(b)
}

// Expr renders the cube as a product of named literals, e.g. "a b' c".
func (c Cube) Expr(names []string) string {
	if c.Care == 0 {
		return "1"
	}
	var parts []string
	for i, name := range names {
		if c.Care&(1<<uint(i)) == 0 {
			continue
		}
		if c.Val&(1<<uint(i)) != 0 {
			parts = append(parts, name)
		} else {
			parts = append(parts, name+"'")
		}
	}
	return strings.Join(parts, " ")
}

// Cover is a sum of cubes over N variables.
type Cover struct {
	N     int
	Cubes []Cube
}

// Eval evaluates the cover on a minterm.
func (cv Cover) Eval(m uint64) bool {
	for _, c := range cv.Cubes {
		if c.Contains(m) {
			return true
		}
	}
	return false
}

// Literals returns the total literal count — the standard area estimate.
func (cv Cover) Literals() int {
	n := 0
	for _, c := range cv.Cubes {
		n += c.Literals()
	}
	return n
}

// Expr renders the cover as a sum of products with named variables.
func (cv Cover) Expr(names []string) string {
	if len(cv.Cubes) == 0 {
		return "0"
	}
	parts := make([]string, len(cv.Cubes))
	for i, c := range cv.Cubes {
		parts[i] = c.Expr(names)
	}
	sort.Strings(parts)
	return strings.Join(parts, " + ")
}

// String renders the cover positionally.
func (cv Cover) String() string {
	if len(cv.Cubes) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(cv.Cubes))
	for i, c := range cv.Cubes {
		parts[i] = c.String(cv.N)
	}
	sort.Strings(parts)
	return strings.Join(parts, " + ")
}

// Support returns the variables appearing in the cover, ascending.
func (cv Cover) Support() []int {
	var mask uint64
	for _, c := range cv.Cubes {
		mask |= c.Care
	}
	var out []int
	for i := 0; i < cv.N; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns an independent copy.
func (cv Cover) Clone() Cover {
	return Cover{N: cv.N, Cubes: append([]Cube(nil), cv.Cubes...)}
}
