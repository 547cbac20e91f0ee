package reach

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/vme"
)

// TestArenaMatchesSequential reuses ONE arena across every model, in both
// safe and unsafe modes, and demands the exact Graph a fresh arena builds —
// state numbering and edges (including nil adjacency on deadlock states).
// Cross-model reuse is the point: stale scratch from a big net must
// never leak into a small one.
func TestArenaMatchesSequential(t *testing.T) {
	models := []struct {
		name string
		net  *petri.Net
		safe bool // net is 1-safe, so exercise RequireSafe too
	}{
		{"vme-read", vme.ReadSTG().Net, true},
		{"vme-read-write", vme.ReadWriteSTG().Net, true},
		{"toggles-8", gen.IndependentToggles(8), true},
		{"ring-9-4", gen.MarkedGraphRing(9, 4), false}, // adjacent tokens merge
		{"muller-8", gen.MullerPipeline(8).Net, true},
		{"phil-5", gen.Philosophers(5), true}, // has deadlock states (nil Out rows)
		{"cscring-3", gen.CSCRing(3).Net, true},
	}
	a := NewArena()
	for round := 0; round < 2; round++ {
		for _, mdl := range models {
			for _, safe := range []bool{false, mdl.safe} {
				seq, err := Explore(mdl.net, Options{RequireSafe: safe})
				if err != nil {
					t.Fatalf("%s: fresh arena: %v", mdl.name, err)
				}
				got, err := Explore(mdl.net, Options{RequireSafe: safe, Arena: a})
				if err != nil {
					t.Fatalf("%s: reused arena: %v", mdl.name, err)
				}
				if !reflect.DeepEqual(seq.Markings, got.Markings) {
					t.Fatalf("%s safe=%v: markings differ", mdl.name, safe)
				}
				if !reflect.DeepEqual(seq.Out, got.Out) {
					t.Fatalf("%s safe=%v: edges differ", mdl.name, safe)
				}
			}
		}
	}
}

// TestArenaBuildSG checks the scratch plumbing through BuildSG: repeated
// builds on one arena return SGs identical to a fresh arena's, and the SG
// owns its storage — it must survive the arena moving on to a different
// spec.
func TestArenaBuildSG(t *testing.T) {
	a := NewArena()
	ref, err := BuildSG(vme.ReadWriteSTG(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSG(vme.ReadWriteSTG(), Options{Arena: a})
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the arena with unrelated builds before comparing.
	if _, err := BuildSG(gen.CSCRing(2), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSG(gen.MullerPipeline(6), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.States, got.States) || !reflect.DeepEqual(ref.Out, got.Out) {
		t.Fatal("reused-arena SG differs from fresh-arena SG")
	}
}

// TestArenaStateLimit pins the partial-graph contract on the arena path:
// exactly MaxStates states, nil adjacency for unexpanded states, and no
// stale rows from a previous full exploration of the same net.
func TestArenaStateLimit(t *testing.T) {
	net := gen.IndependentToggles(6) // 64 states
	a := NewArena()
	if _, err := Explore(net, Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	ref, err := Explore(net, Options{MaxStates: 17})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
	got, err := Explore(net, Options{MaxStates: 17, Arena: a})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("arena: want ErrStateLimit, got %v", err)
	}
	if len(got.Markings) != 17 {
		t.Fatalf("abort must leave exactly MaxStates states, got %d", len(got.Markings))
	}
	if !reflect.DeepEqual(ref.Markings, got.Markings) || !reflect.DeepEqual(ref.Out, got.Out) {
		t.Fatal("partial graphs differ")
	}
}

// TestArenaBuildSGAllocs pins the win the arena exists for: after a warm-up
// exploration, re-exploring the same spec allocates only the codec and the
// Graph header — the visited index, step arrays, marking storage and
// adjacency rows are all reused. The fresh-allocation path pays more than
// twice that.
func TestArenaBuildSGAllocs(t *testing.T) {
	g := vme.ReadSTG()
	a := NewArena()
	if _, err := Explore(g.Net, Options{RequireSafe: true, Arena: a}); err != nil {
		t.Fatal(err)
	}
	arena := testing.AllocsPerRun(20, func() {
		if _, err := Explore(g.Net, Options{RequireSafe: true, Arena: a}); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := Explore(g.Net, Options{RequireSafe: true}); err != nil {
			t.Fatal(err)
		}
	})
	if arena*2 > fresh {
		t.Fatalf("arena exploration allocates %.0f/run, fresh %.0f/run — want < half", arena, fresh)
	}
}

func BenchmarkArenaExplore(b *testing.B) {
	net := vme.ReadWriteSTG().Net
	run := func(b *testing.B, opts Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(net, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { run(b, Options{RequireSafe: true}) })
	b.Run("arena", func(b *testing.B) {
		run(b, Options{RequireSafe: true, Arena: NewArena()})
	})
}
