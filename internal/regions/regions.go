// Package regions implements region theory (Section 4): deriving a Petri
// net from a transition system. Regions — sets of states uniformly entered
// or exited by each event — correspond to places; at any step of the design
// process a PN corresponding to the current TS can be extracted and
// back-annotated to the designer (Figure 10).
package regions

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stg"
	"repro/internal/ts"
)

// Region is a set of states of the TS.
type Region struct {
	In []bool
}

func (r Region) key() string {
	b := make([]byte, len(r.In))
	for i, v := range r.In {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Size returns the number of states inside.
func (r Region) Size() int {
	n := 0
	for _, v := range r.In {
		if v {
			n++
		}
	}
	return n
}

// subsetOf reports r ⊆ o.
func (r Region) subsetOf(o Region) bool {
	for i, v := range r.In {
		if v && !o.In[i] {
			return false
		}
	}
	return true
}

// label identifies an event class: all SG arcs carrying the same signal edge
// (or the same dummy name) are occurrences of one PN transition.
type label struct {
	sig  int
	dir  stg.Dir
	name string
	// inst distinguishes split instances of the same signal edge (label
	// splitting, the petrify fallback when excitation closure fails).
	inst int
}

func labelOf(e ts.Event) label {
	if e.Sig < 0 {
		return label{sig: -1, name: e.Name}
	}
	// Strip instance suffixes: x+/1 and x+ are the same label only if they
	// are the same signal edge, which sig+dir already captures.
	return label{sig: e.Sig, dir: e.Dir}
}

func (l label) String() string {
	if l.sig < 0 {
		return fmt.Sprintf("%s#%d", l.name, l.inst)
	}
	return fmt.Sprintf("sig%d%s#%d", l.sig, l.dir, l.inst)
}

type arc struct {
	from, to int
}

// analyzer caches the arcs per label.
type analyzer struct {
	g      *ts.SG
	labels []label
	arcs   map[label][]arc
}

func newAnalyzer(g *ts.SG) *analyzer {
	arcs := map[label][]arc{}
	for s, out := range g.Out {
		for _, e := range out {
			l := labelOf(e.Event)
			arcs[l] = append(arcs[l], arc{from: s, to: e.To})
		}
	}
	return newAnalyzerFromGroups(g, arcs)
}

func newAnalyzerFromGroups(g *ts.SG, arcs map[label][]arc) *analyzer {
	a := &analyzer{g: g, arcs: arcs}
	for l := range arcs {
		a.labels = append(a.labels, l)
	}
	sort.Slice(a.labels, func(i, j int) bool { return a.labels[i].String() < a.labels[j].String() })
	return a
}

// crossing classifies event l against region r.
type crossing struct {
	enter, exit, inside, outside int
}

func (a *analyzer) classify(l label, r Region) crossing {
	var c crossing
	for _, ar := range a.arcs[l] {
		from, to := r.In[ar.from], r.In[ar.to]
		switch {
		case !from && to:
			c.enter++
		case from && !to:
			c.exit++
		case from && to:
			c.inside++
		default:
			c.outside++
		}
	}
	return c
}

// legal reports whether every event crosses r uniformly.
func (a *analyzer) legal(r Region) bool {
	for _, l := range a.labels {
		c := a.classify(l, r)
		total := c.enter + c.exit + c.inside + c.outside
		if c.enter == 0 && c.exit == 0 {
			continue
		}
		if c.enter == total || c.exit == total {
			continue
		}
		return false
	}
	return true
}

// expansions returns the candidate minimal fixes for the first violating
// event: each is a grown copy of r.
func (a *analyzer) expansions(r Region) []Region {
	for _, l := range a.labels {
		c := a.classify(l, r)
		total := c.enter + c.exit + c.inside + c.outside
		if (c.enter == 0 && c.exit == 0) || c.enter == total || c.exit == total {
			continue
		}
		var out []Region
		// Absorb entering arcs: add their sources (event becomes
		// non-crossing w.r.t. those arcs).
		if c.enter > 0 {
			g := clone(r)
			for _, ar := range a.arcs[l] {
				if !r.In[ar.from] && r.In[ar.to] {
					g.In[ar.from] = true
				}
			}
			out = append(out, g)
		}
		// Absorb exiting arcs: add their targets.
		if c.exit > 0 {
			g := clone(r)
			for _, ar := range a.arcs[l] {
				if r.In[ar.from] && !r.In[ar.to] {
					g.In[ar.to] = true
				}
			}
			out = append(out, g)
		}
		// Complete to all-entering: possible when nothing is inside/exiting.
		if c.enter > 0 && c.exit == 0 && c.inside == 0 {
			g := clone(r)
			for _, ar := range a.arcs[l] {
				if !r.In[ar.from] && !r.In[ar.to] {
					g.In[ar.to] = true
				}
			}
			out = append(out, g)
		}
		// Complete to all-exiting: possible when nothing is inside/entering.
		if c.exit > 0 && c.enter == 0 && c.inside == 0 {
			g := clone(r)
			for _, ar := range a.arcs[l] {
				if !r.In[ar.from] && !r.In[ar.to] {
					g.In[ar.from] = true
				}
			}
			out = append(out, g)
		}
		return out
	}
	return nil
}

func clone(r Region) Region {
	return Region{In: append([]bool(nil), r.In...)}
}

// legalize grows seed into legal regions (BFS over expansion choices),
// returning the minimal ones found. The search is capped to keep pathological
// TSs from exploding.
func (a *analyzer) legalize(seed Region, cap int) []Region {
	if cap <= 0 {
		cap = 4096
	}
	seen := map[string]bool{seed.key(): true}
	queue := []Region{seed}
	var legal []Region
	for len(queue) > 0 && len(seen) < cap {
		r := queue[0]
		queue = queue[1:]
		if a.legal(r) {
			legal = append(legal, r)
			continue // growing a legal region cannot yield a *minimal* one
		}
		for _, g := range a.expansions(r) {
			if !seen[g.key()] {
				seen[g.key()] = true
				queue = append(queue, g)
			}
		}
	}
	// Keep minimal.
	var minimal []Region
	for i, r := range legal {
		isMin := true
		for j, o := range legal {
			if i != j && o.subsetOf(r) && o.Size() < r.Size() {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, r)
		}
	}
	return minimal
}

// ger returns the generalized excitation region of label l: the states with
// an outgoing l-arc.
func (a *analyzer) ger(l label) Region {
	r := Region{In: make([]bool, len(a.g.States))}
	for _, ar := range a.arcs[l] {
		r.In[ar.from] = true
	}
	return r
}

// Synthesize derives an STG whose underlying Petri net generates the given
// state graph: the back-annotation step. When excitation closure fails for
// an event, its label is split by the connected components of its excitation
// region (label splitting, the petrify fallback) and synthesis is retried;
// an error is returned when splitting cannot help.
func Synthesize(g *ts.SG) (*stg.STG, error) {
	arcs := map[label][]arc{}
	for st, out := range g.Out {
		for _, e := range out {
			l := labelOf(e.Event)
			arcs[l] = append(arcs[l], arc{from: st, to: e.To})
		}
	}
	for attempt := 0; attempt < 6; attempt++ {
		out, failing, err := synthesizeWith(g, arcs)
		if err == nil {
			return out, nil
		}
		if failing == nil {
			return nil, err
		}
		split, ok := splitByComponents(g, arcs, *failing)
		if !ok {
			return nil, err
		}
		arcs = split
	}
	return nil, fmt.Errorf("regions: label splitting budget exhausted")
}

// splitByComponents partitions the arcs of label l by the connected
// components of its excitation region (GER states connected by any arc).
func splitByComponents(g *ts.SG, arcs map[label][]arc, l label) (map[label][]arc, bool) {
	las := arcs[l]
	inGER := map[int]bool{}
	for _, ar := range las {
		inGER[ar.from] = true
	}
	// Undirected adjacency within GER via any arc of the TS.
	adj := map[int][]int{}
	for st, out := range g.Out {
		for _, e := range out {
			if inGER[st] && inGER[e.To] {
				adj[st] = append(adj[st], e.To)
				adj[e.To] = append(adj[e.To], st)
			}
		}
	}
	comp := map[int]int{}
	next := 0
	var states []int
	for st := range inGER {
		states = append(states, st)
	}
	sort.Ints(states)
	for _, st := range states {
		if _, done := comp[st]; done {
			continue
		}
		queue := []int{st}
		comp[st] = next
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if _, done := comp[y]; !done {
					comp[y] = next
					queue = append(queue, y)
				}
			}
		}
		next++
	}
	if next < 2 {
		return nil, false
	}
	out := map[label][]arc{}
	for k, v := range arcs {
		if k != l {
			out[k] = v
		}
	}
	for _, ar := range las {
		nl := l
		nl.inst = l.inst*16 + comp[ar.from] + 1
		out[nl] = append(out[nl], ar)
	}
	return out, true
}

// synthesizeWith runs one synthesis attempt over the given label groups.
// On excitation-closure failure it returns the failing label for splitting.
func synthesizeWith(g *ts.SG, arcGroups map[label][]arc) (*stg.STG, *label, error) {
	a := newAnalyzerFromGroups(g, arcGroups)
	out := stg.New(g.Name + "-synth")
	for _, s := range g.Signals {
		out.AddSignal(s.Name, s.Kind)
	}

	// Pre-regions per label.
	regionIdx := map[string]int{} // region key -> place index in out
	var regionList []Region
	preOf := map[string][]int{}
	addRegion := func(r Region) int {
		k := r.key()
		if i, ok := regionIdx[k]; ok {
			return i
		}
		i := len(regionList)
		regionIdx[k] = i
		regionList = append(regionList, r)
		return i
	}

	for _, l := range a.labels {
		ger := a.ger(l)
		minimal := a.legalize(ger, 0)
		// Pre-regions: minimal legal regions containing GER(l) from which l
		// exits (or, for self-loop-free nets, any superset region whose
		// crossing for l is all-exit).
		var pres []Region
		for _, r := range minimal {
			c := a.classify(l, r)
			if c.exit == len(a.arcs[l]) {
				pres = append(pres, r)
			}
		}
		if len(pres) == 0 {
			lc := l
			return nil, &lc, fmt.Errorf("regions: no pre-region for %s (TS not synthesizable)", a.describe(l))
		}
		// Excitation closure: the intersection of pre-regions must equal GER.
		inter := clone(pres[0])
		for _, r := range pres[1:] {
			for i := range inter.In {
				inter.In[i] = inter.In[i] && r.In[i]
			}
		}
		if inter.key() != ger.key() {
			lc := l
			return nil, &lc, fmt.Errorf("regions: excitation closure fails for %s", a.describe(l))
		}
		var idxs []int
		for _, r := range pres {
			idxs = append(idxs, addRegion(r))
		}
		preOf[l.String()] = idxs
	}

	// Build the net: one transition per label, one place per used region.
	placeOf := make([]int, len(regionList))
	for i, r := range regionList {
		name := fmt.Sprintf("r%d", i)
		tokens := 0
		if r.In[g.Initial] {
			tokens = 1
		}
		placeOf[i] = out.Net.AddPlace(name, tokens)
	}
	for _, l := range a.labels {
		var t int
		if l.sig < 0 {
			t = out.AddDummy(l.name)
		} else {
			t = out.AddTransition(l.sig, l.dir)
		}
		for _, ri := range preOf[l.String()] {
			out.Net.ArcPT(placeOf[ri], t)
		}
		// Post places: any used region entered by l.
		for ri, r := range regionList {
			c := a.classify(l, r)
			if c.enter > 0 && c.enter == len(a.arcs[l]) {
				out.Net.ArcTP(t, placeOf[ri])
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("regions: synthesized STG invalid: %w", err)
	}
	return out, nil, nil
}

func (a *analyzer) describe(l label) string {
	if l.sig < 0 {
		return l.name
	}
	return a.g.Signals[l.sig].Name + l.dir.String()
}

// MinimalPreRegions exposes the minimal pre-regions of an event for
// diagnostics and tests.
func MinimalPreRegions(g *ts.SG, sig int, dir stg.Dir) []Region {
	a := newAnalyzer(g)
	l := label{sig: sig, dir: dir}
	ger := a.ger(l)
	var out []Region
	for _, r := range a.legalize(ger, 0) {
		c := a.classify(l, r)
		if c.exit == len(a.arcs[l]) {
			out = append(out, r)
		}
	}
	return out
}

// Describe renders a region as a state list for debugging.
func (r Region) Describe(g *ts.SG) string {
	var parts []string
	for i, in := range r.In {
		if in {
			parts = append(parts, g.Label(i))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}
