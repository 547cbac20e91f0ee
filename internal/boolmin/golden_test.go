package boolmin_test

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/burstmode"
)

var update = flag.Bool("update", false, "rewrite testdata/minimize.golden")

const minimizeGolden = "testdata/minimize.golden"

// goldenCase is one incompletely specified function: everything outside
// on ∪ off is don't-care.
type goldenCase struct {
	name    string
	n       int
	on, off []uint64
}

// sgLikeFunc draws a sparse function shaped like a state graph's next-state
// function: a random walk flipping one bit per step visits 2^n/8 distinct
// codes (at least two), and the function value along the walk changes only
// now and then, as a signal does between its excitation regions. Codes are
// listed in first-visit order, as the logic derivation lists them.
func sgLikeFunc(rng *rand.Rand, n int) (on, off []uint64) {
	want := 1 << uint(n) / 8
	if want < 2 {
		want = 2
	}
	seen := map[uint64]bool{}
	code := uint64(rng.Intn(1 << uint(n)))
	val := rng.Intn(2) == 0
	for len(seen) < want {
		if !seen[code] {
			seen[code] = true
			if val {
				on = append(on, code)
			} else {
				off = append(off, code)
			}
			if rng.Intn(4) == 0 {
				val = !val
			}
		}
		code ^= 1 << uint(rng.Intn(n))
	}
	return on, off
}

// denseFunc draws a function whose on- and off-sets each hold about 45% of
// the 2^n minterms, in increasing minterm order.
func denseFunc(rng *rand.Rand, n int) (on, off []uint64) {
	for m := uint64(0); m < 1<<uint(n); m++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			on = append(on, m)
		case r < 0.90:
			off = append(off, m)
		}
	}
	return on, off
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	rng := rand.New(rand.NewSource(1998))
	for n := 1; n <= 12; n++ {
		for k := 0; k < 4; k++ {
			on, off := sgLikeFunc(rng, n)
			cases = append(cases, goldenCase{fmt.Sprintf("sparse/n%d/%d", n, k), n, on, off})
		}
		for k := 0; k < 2; k++ {
			on, off := denseFunc(rng, n)
			cases = append(cases, goldenCase{fmt.Sprintf("dense/n%d/%d", n, k), n, on, off})
		}
	}
	var all4, allBut0, parityOn, parityOff []uint64
	for m := uint64(0); m < 16; m++ {
		all4 = append(all4, m)
		if m != 0 {
			allBut0 = append(allBut0, m)
		}
	}
	for m := uint64(0); m < 64; m++ {
		if bits.OnesCount64(m)%2 == 0 {
			parityOn = append(parityOn, m)
		} else {
			parityOff = append(parityOff, m)
		}
	}
	cases = append(cases,
		goldenCase{"edge/empty-on", 4, nil, []uint64{1, 2, 7}},
		goldenCase{"edge/empty-off", 4, []uint64{0, 3, 5}, nil},
		goldenCase{"edge/empty-both", 4, nil, nil},
		goldenCase{"edge/tautology", 4, all4, nil},
		goldenCase{"edge/single-on", 4, []uint64{0}, allBut0},
		goldenCase{"edge/duplicate-unsorted-on", 4, []uint64{6, 1, 6, 3, 1, 12, 3}, []uint64{15, 0, 9}},
		goldenCase{"edge/canonical", 4, []uint64{4, 8, 10, 11, 12, 15}, []uint64{0, 1, 2, 3, 5, 6, 7, 13}},
		goldenCase{"edge/parity-6", 6, parityOn, parityOff},
	)
	return cases
}

func renderCover(b *strings.Builder, name string, cv boolmin.Cover) {
	fmt.Fprintf(b, "%s n=%d lits=%d:", name, cv.N, cv.Literals())
	for _, c := range cv.Cubes {
		fmt.Fprintf(b, " %s", c.String(cv.N))
	}
	b.WriteByte('\n')
}

// hfCases are the hazard-free minimization problems of the burstmode
// tests: the two hand-written specifications and the per-output problems
// of the two synthesized machines.
func hfCases(t *testing.T) []struct {
	name string
	spec burstmode.HFSpec
} {
	t.Helper()
	cube := func(pat string) boolmin.Cube {
		c := boolmin.FullCube()
		for i, ch := range pat {
			switch ch {
			case '1':
				c = c.WithLiteral(i, true)
			case '0':
				c = c.WithLiteral(i, false)
			}
		}
		return c
	}
	type hfCase = struct {
		name string
		spec burstmode.HFSpec
	}
	out := []hfCase{
		{"hf/static-consensus", burstmode.HFSpec{
			N:       3,
			Static1: []boolmin.Cube{burstmode.TransitionCube(0b111, 0b110, 3), cube("11-"), cube("0-1")},
			Static0: []boolmin.Cube{cube("10-"), cube("0-0")},
		}},
		{"hf/dynamic-anchor", burstmode.HFSpec{
			N:       2,
			Dynamic: []burstmode.DynTrans{{Cube: burstmode.TransitionCube(0b11, 0b10, 2), Anchor: 0b11}},
		}},
	}
	toggle := burstmode.NewMachine("toggle", []string{"r"}, []string{"a"})
	t0, t1 := toggle.AddState(), toggle.AddState()
	toggle.AddArc(t0, []burstmode.Edge{{Sig: 0, Rise: true}}, []burstmode.Edge{{Sig: 0, Rise: true}}, t1)
	toggle.AddArc(t1, []burstmode.Edge{{Sig: 0, Rise: false}}, []burstmode.Edge{{Sig: 0, Rise: false}}, t0)
	sel := burstmode.NewMachine("select", []string{"a", "b", "c"}, []string{"x", "y"})
	s0, s1, s2 := sel.AddState(), sel.AddState(), sel.AddState()
	sel.AddArc(s0, []burstmode.Edge{{Sig: 0, Rise: true}, {Sig: 1, Rise: true}}, []burstmode.Edge{{Sig: 0, Rise: true}}, s1)
	sel.AddArc(s1, []burstmode.Edge{{Sig: 0, Rise: false}, {Sig: 1, Rise: false}}, []burstmode.Edge{{Sig: 0, Rise: false}}, s0)
	sel.AddArc(s0, []burstmode.Edge{{Sig: 2, Rise: true}}, []burstmode.Edge{{Sig: 1, Rise: true}}, s2)
	sel.AddArc(s2, []burstmode.Edge{{Sig: 2, Rise: false}}, []burstmode.Edge{{Sig: 1, Rise: false}}, s0)
	for _, m := range []*burstmode.Machine{toggle, sel} {
		impl, err := burstmode.Synthesize(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, r := range impl.Covers {
			out = append(out, hfCase{fmt.Sprintf("hf/%s/%s", m.Name, m.Outputs[r.Output]), r.Spec})
		}
	}
	return out
}

// TestMinimizeGolden pins the exact cover — cubes in returned order —
// that MinimizeOnOff produces for seeded sparse state-graph-like and dense
// random functions of 1..12 variables and for edge cases (empty on- or
// off-set, duplicate and unsorted on-minterms), plus the hazard-free
// covers MinimizeHF builds on the same prime generator. Run with -update
// to rewrite the golden after an intended change.
func TestMinimizeGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		renderCover(&b, c.name, boolmin.MinimizeOnOff(c.on, c.off, c.n))
	}
	for _, c := range hfCases(t) {
		cv, err := burstmode.MinimizeHF(c.spec)
		if err != nil {
			fmt.Fprintf(&b, "%s: error: %v\n", c.name, err)
			continue
		}
		renderCover(&b, c.name, cv)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(minimizeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(minimizeGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s", minimizeGolden, i+1, g, w)
		}
	}
}
