// Package logic implements logic synthesis from state graphs (Section 3):
// classification of states into excitation and quiescent regions, derivation
// of next-state functions for every non-input signal, and synthesis of gate
// netlists in three architectures — complex gates, generalized C-elements
// (monotonous covers), and set/reset latch implementations.
package logic

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/boolmin"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Region classifies a state with respect to one signal (Section 3.2).
type Region int

const (
	// ERPlus: the signal is 0 and its rising transition is enabled.
	ERPlus Region = iota
	// QRPlus: the signal is stable 1.
	QRPlus
	// ERMinus: the signal is 1 and its falling transition is enabled.
	ERMinus
	// QRMinus: the signal is stable 0.
	QRMinus
)

func (r Region) String() string {
	switch r {
	case ERPlus:
		return "ER+"
	case QRPlus:
		return "QR+"
	case ERMinus:
		return "ER-"
	case QRMinus:
		return "QR-"
	}
	return "?"
}

// RegionOf classifies state s of the SG with respect to signal sig.
func RegionOf(g *ts.SG, s, sig int) Region {
	val := g.States[s].Code.Bit(sig)
	dir, excited := g.Excited(s, sig)
	switch {
	case excited && dir == stg.Rise:
		return ERPlus
	case excited && dir == stg.Fall:
		return ERMinus
	case val:
		return QRPlus
	default:
		return QRMinus
	}
}

// NextValue returns the value signal sig settles to from state s: flipped if
// excited, held otherwise. This is f_z(s) of Section 3.2.
func NextValue(g *ts.SG, s, sig int) bool {
	switch RegionOf(g, s, sig) {
	case ERPlus, QRPlus:
		return true
	default:
		return false
	}
}

// Function is the derived next-state function of one non-input signal, as
// on-set/off-set minterms over the SG's signal space plus a minimized
// two-level cover.
type Function struct {
	Signal int
	Name   string
	N      int
	Names  []string
	On     []uint64
	Off    []uint64
	Cover  boolmin.Cover
}

// Expr renders the minimized cover with signal names.
func (f Function) Expr() string { return f.Cover.Expr(f.Names) }

// CSCError reports a next-state function conflict: two states share a code
// but imply different function values (the Figure 4 situation).
type CSCError struct {
	Signal string
	Code   ts.Code
	A, B   int
	N      int
}

func (e *CSCError) Error() string {
	return fmt.Sprintf("logic: CSC conflict for signal %s: states %d and %d share code %s with conflicting next values",
		e.Signal, e.A, e.B, e.Code.String(e.N))
}

// cscWitness scans the states in order for the first one whose next value
// of sig differs from that of the first state sharing its code, and reports
// the pair as a *CSCError; nil when sig's next-state function is
// well-defined.
func cscWitness(g *ts.SG, sig int) error {
	first := map[ts.Code]int{}
	for s := range g.States {
		code := g.States[s].Code
		p, seen := first[code]
		if !seen {
			first[code] = s
			continue
		}
		if NextValue(g, p, sig) != NextValue(g, s, sig) {
			return &CSCError{Signal: g.Signals[sig].Name, Code: code, A: p, B: s, N: len(g.Signals)}
		}
	}
	return nil
}

// deriveCover picks the minimization engine by width: exact Quine–McCluskey
// for small functions, BDD-based ISOP (Minato–Morreale) for medium ones
// where the don't-care space cannot be enumerated, and espresso-style
// expansion beyond the BDD comfort zone.
func deriveCover(on, off []uint64, n int) boolmin.Cover {
	switch {
	case n <= 14:
		return boolmin.MinimizeOnOff(on, off, n)
	case n <= 28:
		m := bdd.New(n)
		l := m.FromMinterms(on)
		u := m.Not(m.FromMinterms(off))
		return m.ISOP(l, u)
	default:
		return boolmin.MinimizeOnOff(on, off, n)
	}
}

// DeriveAll derives the next-state functions of every non-input signal. It
// fails with a *CSCError when the SG lacks complete state coding for one of
// them. It is DeriveAllOpts with default options.
func DeriveAll(g *ts.SG) ([]Function, error) {
	return DeriveAllOpts(g, Options{})
}

// ExcitationRegions returns the connected components of ER(sig,dir): the
// state sets used for signal insertion and region-based analysis.
func ExcitationRegions(g *ts.SG, sig int, dir stg.Dir) [][]int {
	want := ERPlus
	if dir == stg.Fall {
		want = ERMinus
	}
	inER := make([]bool, len(g.States))
	for s := range g.States {
		inER[s] = RegionOf(g, s, sig) == want
	}
	// Connected components in the underlying undirected graph restricted to ER.
	adj := make([][]int, len(g.States))
	for s, arcs := range g.Out {
		for _, a := range arcs {
			if inER[s] && inER[a.To] {
				adj[s] = append(adj[s], a.To)
				adj[a.To] = append(adj[a.To], s)
			}
		}
	}
	seen := make([]bool, len(g.States))
	var comps [][]int
	for s := range g.States {
		if !inER[s] || seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
