package encoding

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/stg"
)

// choiceMerge is a+ → p1 → {b+ | c+}, b+ → b− and c+ → c−, b− and c− both
// feeding p4, p4 feeding a−, and a− → a+ through a marked place. Its choice
// place p1 has two consumers and its merge place p4 two producers: links
// the class rule must not join, which the corpus's marked graphs lack.
func choiceMerge() *stg.STG {
	g := stg.New("choice-merge")
	for _, s := range []string{"a", "b", "c"} {
		g.AddSignal(s, stg.Output)
	}
	ap, bp, bm, cp, cm, am := g.Rise("a"), g.Rise("b"), g.Fall("b"), g.Rise("c"), g.Fall("c"), g.Fall("a")
	net := g.Net
	p1 := net.AddPlace("p1", 0)
	net.ArcTP(ap, p1)
	net.ArcPT(p1, bp)
	net.ArcPT(p1, cp)
	net.Implicit(bp, bm, 0)
	net.Implicit(cp, cm, 0)
	p4 := net.AddPlace("p4", 0)
	net.ArcTP(bm, p4)
	net.ArcTP(cm, p4)
	net.ArcPT(p4, am)
	net.Implicit(am, ap, 1)
	return g
}

// TestInsertionClassesMatchPairs checks the classes of insertion pairs
// that evalPairs explores one representative of. Over every round of the
// product differential and choice-merge, every pair scored on its own gets
// its representative's verdict, and InsertSignalAt of the pair and of its
// representative both fail or give equal canonical signatures, which share
// no code with pointClasses. Representatives come first in enumeration
// order. Within a round no two accepted representatives build nets with
// one canonical signature, so a round's survivors share a signature
// exactly when they share a class: costing one candidate per class costs
// no isomorphic candidate twice, and firstRound's skip by class skips the
// same twins a skip by signature would. The counts of pairs, classes,
// accepted representatives and solved ones are pinned.
func TestInsertionClassesMatchPairs(t *testing.T) {
	rounds := append(productRounds(t), productRound{name: "choice-merge", g: choiceMerge(), signal: "csc0"})
	// Base rounds: pairs and classes.
	want := map[string][2]int{
		"gen/cscring-4":    {2256, 646},
		"gen/cscring-3":    {1260, 376},
		"gen/cscring-2":    {552, 178},
		"vme-read-write.g": {380, 310},
		"vme-read.g":       {132, 112},
		"choice-merge":     {132, 94},
	}
	var pairs, classes, accepted, solved, badVerdicts, badSigs, isomorphic int
	var bad []string
	for _, rd := range rounds {
		ctx := newEvalCtx(Options{Workers: 2})
		pr, prs, err := newRound(explored(t, rd.g), rd.signal)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if rd.maxStates > 0 {
			pr.maxStates = rd.maxStates
		}
		n := 0
		for i, p := range prs {
			if p.rep == i {
				n++
			} else if p.rep > i || prs[p.rep].rep != p.rep {
				t.Fatalf("%s: pair %d has representative %d, itself represented by %d", rd.name, i, p.rep, prs[p.rep].rep)
			}
		}
		if w, ok := want[rd.name]; ok && (len(prs) != w[0] || n != w[1]) {
			t.Errorf("%s: %d pairs in %d classes, want %d in %d", rd.name, len(prs), n, w[0], w[1])
		}
		pairs += len(prs)
		classes += n
		var mu sync.Mutex
		sigs := make([]string, len(prs)) // of the accepted representatives
		solvedRep := make([]bool, len(prs))
		if err := ctx.runPool(len(prs), func(sc *productScratch, i int) error {
			p := prs[i]
			if p.rep == i {
				if v := pr.score(sc, p.r, p.f); v.reason == none {
					cand, err := InsertSignalAt(rd.g, rd.signal, p.r, p.f)
					if err != nil {
						return err
					}
					sigs[i], solvedRep[i] = canonicalSignature(cand), v.conflicts == 0
				}
				return nil
			}
			q := prs[p.rep]
			vp, vq := pr.score(sc, p.r, p.f), pr.score(sc, q.r, q.f)
			a, errA := InsertSignalAt(rd.g, rd.signal, p.r, p.f)
			b, errB := InsertSignalAt(rd.g, rd.signal, q.r, q.f)
			sameNet := (errA == nil) == (errB == nil) && (errA != nil || canonicalSignature(a) == canonicalSignature(b))
			if vp == vq && sameNet {
				return nil
			}
			desc := fmt.Sprintf("%s: %s (representative %s)", rd.name, describeInsertion(rd.g, rd.signal, p.r, p.f),
				describeInsertion(rd.g, rd.signal, q.r, q.f))
			mu.Lock()
			defer mu.Unlock()
			if vp != vq {
				badVerdicts++
				bad = append(bad, fmt.Sprintf("%s: verdict %+v, representative's %+v", desc, vp, vq))
			}
			if !sameNet {
				badSigs++
				bad = append(bad, desc+": canonical signatures differ")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		first := make(map[string]int)
		for i, sig := range sigs {
			if sig == "" {
				continue
			}
			accepted++
			if solvedRep[i] {
				solved++
			}
			if j, ok := first[sig]; ok {
				isomorphic++
				bad = append(bad, fmt.Sprintf("%s: accepted representatives %s and %s build isomorphic nets", rd.name,
					describeInsertion(rd.g, rd.signal, prs[j].r, prs[j].f), describeInsertion(rd.g, rd.signal, prs[i].r, prs[i].f)))
				continue
			}
			first[sig] = i
		}
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		t.Errorf("%d verdict and %d signature mismatches, %d isomorphic accepted representatives, first: %s",
			badVerdicts, badSigs, isomorphic, bad[0])
	}
	if pairs != 61376 || classes != 21266 || accepted != 6318 || solved != 220 {
		t.Errorf("%d pairs in %d classes, %d accepted representatives, %d solved; want 61376 in 21266, 6318, 220",
			pairs, classes, accepted, solved)
	}
	t.Logf("%d pairs in %d classes, %d accepted representatives, %d solved", pairs, classes, accepted, solved)
}

// canonicalSignature renders a name-independent structural signature of an
// STG: transitions are identified by their (unique) names and every place by
// "sorted preset > sorted postset > tokens", with the place descriptors
// themselves sorted. Generated place names are deliberately excluded —
// symmetric insertion points ("after t" vs "before u" across an unmarked
// chain t -> p -> u) build isomorphic nets differing only in those names.
// Two STGs over the same signal set with equal signatures are isomorphic:
// transition names fix the transition bijection and the descriptor
// multiset fixes the places. It shares no code with pointClasses, whose
// oracle it is.
func canonicalSignature(g *stg.STG) string {
	net := g.Net
	descs := make([]string, len(net.Places))
	var sb strings.Builder
	var names []string
	appendNames := func(ts []int) {
		names = names[:0]
		for _, t := range ts {
			names = append(names, net.Transitions[t].Name)
		}
		sort.Strings(names)
		for _, nm := range names {
			sb.WriteString(nm)
			sb.WriteByte(',')
		}
	}
	for i := range net.Places {
		p := &net.Places[i]
		sb.Reset()
		appendNames(p.Pre)
		sb.WriteByte('>')
		appendNames(p.Post)
		sb.WriteByte('>')
		sb.WriteString(strconv.Itoa(p.Initial))
		descs[i] = sb.String()
	}
	sort.Strings(descs)
	return strings.Join(descs, ";")
}
