package bdd

import "repro/internal/boolmin"

// ISOP computes an irredundant sum-of-products G with L ⊆ G ⊆ U using the
// Minato–Morreale algorithm: the BDD-native route from symbolic functions to
// two-level covers, used past the exact minimizer's 14-variable window. L is
// the on-set lower bound (must be covered), U the upper bound
// (on ∪ don't-care).
func (m *Manager) ISOP(l, u Ref) boolmin.Cover {
	cubes, _ := m.isop(l, u)
	return boolmin.Cover{N: m.numVars, Cubes: cubes}
}

// isop returns the cubes and the BDD of their disjunction.
func (m *Manager) isop(l, u Ref) ([]boolmin.Cube, Ref) {
	if l == False {
		return nil, False
	}
	if u == True {
		return []boolmin.Cube{boolmin.FullCube()}, True
	}
	// Top variable of l or u.
	v := m.level(l)
	if lu := m.level(u); lu < v {
		v = lu
	}
	l0, l1 := m.cofactors(l, v)
	u0, u1 := m.cofactors(u, v)

	// Cubes that must contain the negative literal of v: the part of l0 not
	// coverable by cubes valid at v=1.
	c0, g0 := m.isop(m.Diff(l0, u1), u0)
	// Cubes that must contain the positive literal.
	c1, g1 := m.isop(m.Diff(l1, u0), u1)
	// Remainder: coverable without mentioning v.
	lr := m.Or(m.Diff(l0, g0), m.Diff(l1, g1))
	cr, gr := m.isop(lr, m.And(u0, u1))

	// Cube literals are variable indices, not order levels.
	lit := int(m.level2var[v])
	var cubes []boolmin.Cube
	for _, c := range c0 {
		cubes = append(cubes, c.WithLiteral(lit, false))
	}
	for _, c := range c1 {
		cubes = append(cubes, c.WithLiteral(lit, true))
	}
	cubes = append(cubes, cr...)

	varRef := m.mk(v, False, True)
	g := m.OrN(m.And(m.Not(varRef), g0), m.And(varRef, g1), gr)
	return cubes, g
}

// FromCover builds the BDD of a sum-of-products cover.
func (m *Manager) FromCover(cv boolmin.Cover) Ref {
	r := False
	for _, c := range cv.Cubes {
		cube := True
		for v := 0; v < m.numVars; v++ {
			bit := uint64(1) << uint(v)
			if c.Care&bit == 0 {
				continue
			}
			if c.Val&bit != 0 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		r = m.Or(r, cube)
	}
	return r
}

// FromMinterms builds the BDD of a set of minterms. Duplicates are allowed
// and bits at or above NumVars are ignored. The list is split on each
// level's variable in turn with one mk per split: O(len(ms)·NumVars), no
// ITE.
func (m *Manager) FromMinterms(ms []uint64) Ref {
	return m.fromMinterms(append([]uint64(nil), ms...), 0)
}

// fromMinterms builds the function of ms below level, partitioning ms in
// place on the variable tested at level.
func (m *Manager) fromMinterms(ms []uint64, level int32) Ref {
	if len(ms) == 0 {
		return False
	}
	if int(level) == m.numVars {
		return True
	}
	bit := uint64(1) << uint(m.level2var[level])
	lo, hi := 0, len(ms)
	for lo < hi {
		if ms[lo]&bit == 0 {
			lo++
		} else {
			hi--
			ms[lo], ms[hi] = ms[hi], ms[lo]
		}
	}
	return m.mk(level, m.fromMinterms(ms[:lo], level+1), m.fromMinterms(ms[lo:], level+1))
}
