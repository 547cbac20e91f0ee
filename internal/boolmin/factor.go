package boolmin

import "sort"

// Algebraic factoring primitives (Section 3.4: "candidates for decomposition
// extracted by algebraic factorization"). Covers are treated as algebraic
// expressions: cubes are products of literals, no Boolean simplification.

// CubeFree reports whether the cover has no literal common to all cubes.
func (cv Cover) CubeFree() bool {
	if len(cv.Cubes) == 0 {
		return true
	}
	common := cv.commonLiterals()
	return common.Care == 0
}

func (cv Cover) commonLiterals() Cube {
	if len(cv.Cubes) == 0 {
		return Cube{}
	}
	care := cv.Cubes[0].Care
	val := cv.Cubes[0].Val
	for _, c := range cv.Cubes[1:] {
		agree := care & c.Care &^ (val ^ c.Val)
		care = agree
		val &= agree
	}
	return Cube{Val: val, Care: care}
}

// DivideByLiteral computes the algebraic quotient and remainder of the cover
// by a single literal (variable v at polarity pos).
func (cv Cover) DivideByLiteral(v int, pos bool) (quot, rem Cover) {
	lit := Cube{}.WithLiteral(v, pos)
	quot = Cover{N: cv.N}
	rem = Cover{N: cv.N}
	for _, c := range cv.Cubes {
		if c.Care&lit.Care == lit.Care && (c.Val^lit.Val)&lit.Care == 0 {
			quot.Cubes = append(quot.Cubes, Cube{Val: c.Val &^ lit.Care, Care: c.Care &^ lit.Care})
		} else {
			rem.Cubes = append(rem.Cubes, c)
		}
	}
	return quot, rem
}

// Divide computes the algebraic (weak) division cv / d: the largest q with
// cv = q*d + r algebraically. d must be cube-free for kernel theory but any
// cover is accepted.
func (cv Cover) Divide(d Cover) (quot, rem Cover) {
	if len(d.Cubes) == 0 {
		return Cover{N: cv.N}, cv.Clone()
	}
	// For each cube of d, the set of quotient cubes it admits; intersect.
	var qset map[Cube]bool
	for _, dc := range d.Cubes {
		cur := map[Cube]bool{}
		for _, c := range cv.Cubes {
			// c must contain dc's literals; quotient cube is c minus them.
			if c.Care&dc.Care == dc.Care && (c.Val^dc.Val)&dc.Care == 0 {
				q := Cube{Val: c.Val &^ dc.Care, Care: c.Care &^ dc.Care}
				cur[q] = true
			}
		}
		if qset == nil {
			qset = cur
		} else {
			for q := range qset {
				if !cur[q] {
					delete(qset, q)
				}
			}
		}
		if len(qset) == 0 {
			break
		}
	}
	quot = Cover{N: cv.N}
	for q := range qset {
		quot.Cubes = append(quot.Cubes, q)
	}
	sortCubes(quot.Cubes)
	// Remainder: cubes of cv not expressible as q*dc.
	used := map[Cube]bool{}
	for _, q := range quot.Cubes {
		for _, dc := range d.Cubes {
			prod := Cube{Val: q.Val | dc.Val, Care: q.Care | dc.Care}
			used[prod] = true
		}
	}
	rem = Cover{N: cv.N}
	for _, c := range cv.Cubes {
		if !used[c] {
			rem.Cubes = append(rem.Cubes, c)
		}
	}
	return quot, rem
}

// Kernel is a cube-free quotient of the cover by a cube (its co-kernel).
type Kernel struct {
	CoKernel Cube
	Kernel   Cover
}

// Kernels enumerates all kernels of the cover (including the cover itself if
// cube-free), via the classic recursive literal-division algorithm.
func (cv Cover) Kernels() []Kernel {
	seen := map[string]bool{}
	var out []Kernel
	var rec func(c Cover, co Cube, minVar int)
	rec = func(c Cover, co Cube, minVar int) {
		for v := minVar; v < cv.N; v++ {
			for _, pos := range []bool{true, false} {
				cnt := 0
				lit := Cube{}.WithLiteral(v, pos)
				for _, cb := range c.Cubes {
					if cb.Care&lit.Care == lit.Care && (cb.Val^lit.Val)&lit.Care == 0 {
						cnt++
					}
				}
				if cnt < 2 {
					continue
				}
				q, _ := c.DivideByLiteral(v, pos)
				// Make cube-free.
				common := q.commonLiterals()
				q2 := Cover{N: q.N}
				for _, cb := range q.Cubes {
					q2.Cubes = append(q2.Cubes, Cube{Val: cb.Val &^ common.Care, Care: cb.Care &^ common.Care})
				}
				newCo := Cube{
					Val:  co.Val | lit.Val | common.Val,
					Care: co.Care | lit.Care | common.Care,
				}
				key := q2.String()
				if !seen[key] {
					seen[key] = true
					out = append(out, Kernel{CoKernel: newCo, Kernel: q2})
				}
				rec(q2, newCo, v+1)
			}
		}
	}
	if cv.CubeFree() && len(cv.Cubes) > 1 {
		out = append(out, Kernel{CoKernel: FullCube(), Kernel: cv.Clone()})
		seen[cv.String()] = true
	}
	rec(cv, FullCube(), 0)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Kernel.String() < out[j].Kernel.String()
	})
	return out
}

func sortCubes(cs []Cube) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Care != cs[j].Care {
			return cs[i].Care < cs[j].Care
		}
		return cs[i].Val < cs[j].Val
	})
}
