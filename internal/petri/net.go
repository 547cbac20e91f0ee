// Package petri implements safe (1-bounded) Petri nets: the token game,
// structural queries, and interchange formats. It is the foundation of the
// whole flow: Signal Transition Graphs (package stg) are Petri nets whose
// transitions are interpreted as signal edges.
//
// The package follows the paper's conventions: places hold at most one token
// in all intended uses (safety is checked, not assumed), transitions fire
// atomically, and a marking is the set of currently marked places.
package petri

import (
	"fmt"
	"sort"
	"strings"
)

// Place is a local state/resource holder of the net.
type Place struct {
	Name    string
	Initial int // tokens in the initial marking

	// Pre and Post list transition indexes: Pre produce into this place,
	// Post consume from it. Maintained by the arc-adding methods.
	Pre, Post []int
}

// Transition is an atomic event of the net.
type Transition struct {
	Name string

	// Pre and Post list place indexes: Pre are consumed from, Post are
	// produced into. Maintained by the arc-adding methods.
	Pre, Post []int
}

// Net is a Petri net. The zero value is an empty net ready to use; places and
// transitions are addressed by dense integer indexes returned from AddPlace
// and AddTransition.
type Net struct {
	Name        string
	Places      []Place
	Transitions []Transition

	placeByName map[string]int
	transByName map[string]int
}

// New returns an empty net with the given name.
func New(name string) *Net {
	return &Net{
		Name:        name,
		placeByName: make(map[string]int),
		transByName: make(map[string]int),
	}
}

// AddPlace adds a place with the given name and initial token count and
// returns its index. Duplicate names are rejected with a panic: net
// construction errors are programming errors, not runtime conditions.
func (n *Net) AddPlace(name string, tokens int) int {
	if _, dup := n.placeByName[name]; dup {
		panic(fmt.Sprintf("petri: duplicate place %q", name))
	}
	if tokens < 0 {
		panic(fmt.Sprintf("petri: negative initial marking for %q", name))
	}
	idx := len(n.Places)
	n.Places = append(n.Places, Place{Name: name, Initial: tokens})
	n.placeByName[name] = idx
	return idx
}

// AddTransition adds a transition with the given name and returns its index.
// Duplicate names panic, like AddPlace: an invariant violation by the
// constructing code, not a runtime condition.
func (n *Net) AddTransition(name string) int {
	if _, dup := n.transByName[name]; dup {
		panic(fmt.Sprintf("petri: duplicate transition %q", name))
	}
	idx := len(n.Transitions)
	n.Transitions = append(n.Transitions, Transition{Name: name})
	n.transByName[name] = idx
	return idx
}

// PlaceIndex returns the index of the named place, or -1.
func (n *Net) PlaceIndex(name string) int {
	if i, ok := n.placeByName[name]; ok {
		return i
	}
	return -1
}

// TransitionIndex returns the index of the named transition, or -1.
func (n *Net) TransitionIndex(name string) int {
	if i, ok := n.transByName[name]; ok {
		return i
	}
	return -1
}

// ArcPT adds an arc from place p to transition t.
func (n *Net) ArcPT(p, t int) {
	n.checkPlace(p)
	n.checkTrans(t)
	n.Transitions[t].Pre = append(n.Transitions[t].Pre, p)
	n.Places[p].Post = append(n.Places[p].Post, t)
}

// ArcTP adds an arc from transition t to place p.
func (n *Net) ArcTP(t, p int) {
	n.checkPlace(p)
	n.checkTrans(t)
	n.Transitions[t].Post = append(n.Transitions[t].Post, p)
	n.Places[p].Pre = append(n.Places[p].Pre, t)
}

// Implicit adds an implicit (unnamed) place between transitions t1 and t2
// with the given initial token count, returning the place index. The place is
// named "<t1,t2>" following the astg convention.
func (n *Net) Implicit(t1, t2 int, tokens int) int {
	n.checkTrans(t1)
	n.checkTrans(t2)
	base := fmt.Sprintf("<%s,%s>", n.Transitions[t1].Name, n.Transitions[t2].Name)
	name := base
	for k := 1; n.PlaceIndex(name) >= 0; k++ {
		name = fmt.Sprintf("%s#%d", base, k)
	}
	p := n.AddPlace(name, tokens)
	n.ArcTP(t1, p)
	n.ArcPT(p, t2)
	return p
}

// Chain connects consecutive transitions with fresh implicit unmarked places:
// t0 -> t1 -> ... -> tk.
func (n *Net) Chain(ts ...int) {
	for i := 0; i+1 < len(ts); i++ {
		n.Implicit(ts[i], ts[i+1], 0)
	}
}

// checkPlace and checkTrans guard arc construction with invariant panics:
// indexes come from the Add* return values, so an out-of-range index is a
// bug in the constructing code and fails loudly rather than corrupting the
// net.
func (n *Net) checkPlace(p int) {
	if p < 0 || p >= len(n.Places) {
		panic(fmt.Sprintf("petri: place index %d out of range", p))
	}
}

func (n *Net) checkTrans(t int) {
	if t < 0 || t >= len(n.Transitions) {
		panic(fmt.Sprintf("petri: transition index %d out of range", t))
	}
}

// Validate reports structural problems that make the net unusable for
// analysis: transitions with empty presets (they would be always enabled,
// which is never meaningful in an interface spec) and disconnected places.
func (n *Net) Validate() error {
	for i, t := range n.Transitions {
		if len(t.Pre) == 0 {
			return fmt.Errorf("petri: transition %q (%d) has empty preset", t.Name, i)
		}
	}
	for i, p := range n.Places {
		if len(p.Pre) == 0 && len(p.Post) == 0 && p.Initial == 0 {
			return fmt.Errorf("petri: place %q (%d) is isolated and unmarked", p.Name, i)
		}
	}
	return nil
}

// InitialMarking returns a fresh copy of the initial marking.
func (n *Net) InitialMarking() Marking {
	m := make(Marking, len(n.Places))
	for i, p := range n.Places {
		m[i] = byte(p.Initial)
	}
	return m
}

// Enabled reports whether transition t is enabled in marking m.
func (n *Net) Enabled(m Marking, t int) bool {
	for _, p := range n.Transitions[t].Pre {
		if m[p] == 0 {
			return false
		}
	}
	return true
}

// EnabledList returns the indexes of all transitions enabled in m, in
// ascending order.
func (n *Net) EnabledList(m Marking) []int {
	var out []int
	for t := range n.Transitions {
		if n.Enabled(m, t) {
			out = append(out, t)
		}
	}
	return out
}

// Fire returns the marking reached by firing t from m. It panics if t is not
// enabled; callers are expected to check with Enabled first. The input
// marking is not modified.
func (n *Net) Fire(m Marking, t int) Marking {
	if !n.Enabled(m, t) {
		panic(fmt.Sprintf("petri: firing disabled transition %q", n.Transitions[t].Name))
	}
	next := make(Marking, len(m))
	copy(next, m)
	for _, p := range n.Transitions[t].Pre {
		next[p]--
	}
	for _, p := range n.Transitions[t].Post {
		next[p]++
	}
	return next
}

// Clone returns a deep copy of the net.
func (n *Net) Clone() *Net {
	c := New(n.Name)
	c.Places = make([]Place, len(n.Places))
	for i, p := range n.Places {
		c.Places[i] = Place{
			Name:    p.Name,
			Initial: p.Initial,
			Pre:     append([]int(nil), p.Pre...),
			Post:    append([]int(nil), p.Post...),
		}
		c.placeByName[p.Name] = i
	}
	c.Transitions = make([]Transition, len(n.Transitions))
	for i, t := range n.Transitions {
		c.Transitions[i] = Transition{
			Name: t.Name,
			Pre:  append([]int(nil), t.Pre...),
			Post: append([]int(nil), t.Post...),
		}
		c.transByName[t.Name] = i
	}
	return c
}

// String returns a compact textual description, stable across runs.
func (n *Net) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net %s: %d places, %d transitions\n", n.Name, len(n.Places), len(n.Transitions))
	for _, t := range n.Transitions {
		pre := make([]string, len(t.Pre))
		for i, p := range t.Pre {
			pre[i] = n.Places[p].Name
		}
		post := make([]string, len(t.Post))
		for i, p := range t.Post {
			post[i] = n.Places[p].Name
		}
		sort.Strings(pre)
		sort.Strings(post)
		fmt.Fprintf(&b, "  %s: {%s} -> {%s}\n", t.Name, strings.Join(pre, ","), strings.Join(post, ","))
	}
	marked := []string{}
	for _, p := range n.Places {
		if p.Initial > 0 {
			marked = append(marked, fmt.Sprintf("%s=%d", p.Name, p.Initial))
		}
	}
	sort.Strings(marked)
	fmt.Fprintf(&b, "  marking: {%s}\n", strings.Join(marked, ","))
	return b.String()
}
