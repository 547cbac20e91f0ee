package stg

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file implements the astg ".g" interchange format used by petrify and
// SIS, so that specs can be exchanged with the historical toolchain:
//
//	.model vme-read
//	.inputs DSr LDTACK
//	.outputs LDS DTACK D
//	.graph
//	DSr+ LDS+
//	p0 DSr+
//	...
//	.marking { p0 <LDS+,LDTACK+> }
//	.end
//
// Tokens in the .graph section are transition labels (sig+, sig-, sig~,
// optionally /k-suffixed) for declared signals, dummy-event names declared
// with .dummy, or explicit place names. An arc between two transitions
// creates an implicit place named "<src,dst>".

// ParseG parses an STG in .g format.
func ParseG(r io.Reader) (*STG, error) {
	sc := bufio.NewScanner(r)
	// Lines may run to 1 MB. The scanner starts small and grows to the
	// longest line, so a parse allocates in proportion to its input.
	sc.Buffer(nil, 1<<20)

	var g *STG
	model := "stg"
	type decl struct {
		names []string
		kind  Kind
	}
	var decls []decl
	dummies := map[string]bool{}
	type graphLine struct {
		no     int
		fields []string
	}
	var graphLines []graphLine
	var markingLine string
	inGraph := false

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == ".model" || fields[0] == ".name":
			if len(fields) > 1 {
				model = fields[1]
			}
		case fields[0] == ".inputs":
			decls = append(decls, decl{fields[1:], Input})
		case fields[0] == ".outputs":
			decls = append(decls, decl{fields[1:], Output})
		case fields[0] == ".internal":
			decls = append(decls, decl{fields[1:], Internal})
		case fields[0] == ".dummy":
			for _, d := range fields[1:] {
				dummies[d] = true
			}
		case fields[0] == ".graph":
			inGraph = true
		case fields[0] == ".marking":
			markingLine = line
			inGraph = false
		case fields[0] == ".end":
			inGraph = false
		case strings.HasPrefix(fields[0], "."):
			// Ignore unknown dot-directives (.capacity, .slowenv, ...).
		case inGraph:
			graphLines = append(graphLines, graphLine{lineNo, fields})
		default:
			return nil, fmt.Errorf("stg: line %d: unexpected %q outside .graph", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stg: line %d: %w", lineNo+1, err)
	}

	g = New(model)
	for _, d := range decls {
		for _, name := range d.names {
			if g.SignalIndex(name) >= 0 {
				return nil, fmt.Errorf("stg: signal %q declared twice", name)
			}
			g.AddSignal(name, d.kind)
		}
	}

	// First pass: create every transition node mentioned anywhere, so that
	// arcs can refer to them regardless of declaration order.
	transIdx := map[string]int{}
	ensureNode := func(tok string) (isTrans bool, idx int, err error) {
		if i, ok := transIdx[tok]; ok {
			return true, i, nil
		}
		if sig, dir, ok := g.parseLabel(tok); ok {
			t := g.Net.AddTransition(tok)
			g.Labels = append(g.Labels, Label{Sig: sig, Dir: dir})
			transIdx[tok] = t
			return true, t, nil
		}
		if dummies[tok] || dummies[strings.SplitN(tok, "/", 2)[0]] {
			t := g.AddDummy(tok)
			transIdx[tok] = t
			return true, t, nil
		}
		return false, 0, nil
	}
	for _, gl := range graphLines {
		for _, tok := range gl.fields {
			if _, _, err := ensureNode(tok); err != nil {
				return nil, err
			}
		}
	}
	// Second pass: places and arcs.
	placeIdx := map[string]int{}
	ensurePlace := func(name string) int {
		if i, ok := placeIdx[name]; ok {
			return i
		}
		i := g.Net.AddPlace(name, 0)
		placeIdx[name] = i
		return i
	}
	// Every arc has weight one, so an arc listed twice — on one line, on two
	// lines, or once as a transition pair and once through its implicit
	// place — is an error rather than a weight-2 arc.
	for _, gl := range graphLines {
		src := gl.fields[0]
		srcIsT, srcT, _ := ensureNode(src)
		var srcP int
		if !srcIsT {
			srcP = ensurePlace(src)
		}
		for _, dst := range gl.fields[1:] {
			dstIsT, dstT, _ := ensureNode(dst)
			dup := false
			switch {
			case srcIsT && dstIsT:
				name := "<" + src + "," + dst + ">"
				p := ensurePlace(name)
				dup = slices.Contains(g.Net.Transitions[srcT].Post, p) ||
					slices.Contains(g.Net.Transitions[dstT].Pre, p)
				if !dup {
					g.Net.ArcTP(srcT, p)
					g.Net.ArcPT(p, dstT)
				}
			case srcIsT && !dstIsT:
				p := ensurePlace(dst)
				if dup = slices.Contains(g.Net.Transitions[srcT].Post, p); !dup {
					g.Net.ArcTP(srcT, p)
				}
			case !srcIsT && dstIsT:
				if dup = slices.Contains(g.Net.Transitions[dstT].Pre, srcP); !dup {
					g.Net.ArcPT(srcP, dstT)
				}
			default:
				return nil, fmt.Errorf("stg: arc between two places %q -> %q", src, dst)
			}
			if dup {
				return nil, fmt.Errorf("stg: line %d: arc %s -> %s declared twice", gl.no, src, dst)
			}
		}
	}

	if markingLine != "" {
		if err := parseMarking(g, placeIdx, markingLine); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// parseLabel decodes "SIG+", "SIG-", "SIG~" with optional "/k" suffix for a
// declared signal.
func (g *STG) parseLabel(tok string) (sig int, dir Dir, ok bool) {
	body := tok
	if i := strings.IndexByte(body, '/'); i >= 0 {
		if _, err := strconv.Atoi(body[i+1:]); err != nil {
			return 0, 0, false
		}
		body = body[:i]
	}
	if len(body) < 2 {
		return 0, 0, false
	}
	var d Dir
	switch body[len(body)-1] {
	case '+':
		d = Rise
	case '-':
		d = Fall
	case '~':
		d = Toggle
	default:
		return 0, 0, false
	}
	s := g.SignalIndex(body[:len(body)-1])
	if s < 0 {
		return 0, 0, false
	}
	return s, d, true
}

func parseMarking(g *STG, placeIdx map[string]int, line string) error {
	open := strings.IndexByte(line, '{')
	close := strings.LastIndexByte(line, '}')
	if open < 0 || close < open {
		return fmt.Errorf("stg: malformed .marking line %q", line)
	}
	body := line[open+1 : close]
	// Tokens are either plain names or "<a,b>" (no spaces inside petrify
	// output); allow both "<a,b>" and "name=k".
	var toks []string
	for _, f := range strings.Fields(body) {
		toks = append(toks, f)
	}
	for _, tok := range toks {
		count := 1
		// A "=k" token-count suffix follows the place name, which may itself
		// be an implicit "<a,b>" name — so only an '=' after the closing '>'
		// (or any '=' in a bracketless name) is a count.
		if i := strings.LastIndexByte(tok, '='); i >= 0 && i > strings.LastIndexByte(tok, '>') {
			// A marking holds 0..255 tokens a place.
			n, err := strconv.Atoi(tok[i+1:])
			if err != nil || n < 0 || n > 255 {
				return fmt.Errorf("stg: bad marking count in %q (want 0..255)", tok)
			}
			count = n
			tok = tok[:i]
		}
		p, ok := placeIdx[tok]
		if !ok {
			return fmt.Errorf("stg: marking references unknown place %q", tok)
		}
		g.Net.Places[p].Initial = count
	}
	return nil
}

// WriteG renders the STG in .g format. Implicit places (single-arc, named
// "<a,b>") are emitted as direct transition→transition arcs.
func (g *STG) WriteG(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, ".model %s\n", g.Name())
	writeSigLine := func(kw string, kind Kind) {
		var names []string
		for _, s := range g.Signals {
			if s.Kind == kind {
				names = append(names, s.Name)
			}
		}
		if len(names) > 0 {
			fmt.Fprintf(&b, "%s %s\n", kw, strings.Join(names, " "))
		}
	}
	writeSigLine(".inputs", Input)
	writeSigLine(".outputs", Output)
	writeSigLine(".internal", Internal)
	var dummies []string
	for t, l := range g.Labels {
		if l.Sig < 0 {
			dummies = append(dummies, g.Net.Transitions[t].Name)
		}
	}
	if len(dummies) > 0 {
		// Transition creation order is parse-order dependent (a reparse of
		// the line-sorted canonical form permutes it), so the .dummy line
		// must be sorted for the rendering to be canonical.
		sort.Strings(dummies)
		fmt.Fprintf(&b, ".dummy %s\n", strings.Join(dummies, " "))
	}
	b.WriteString(".graph\n")

	// A place prints as a bare transition→transition arc only when it is
	// the unique implicit place between that pair: parallel implicit places
	// would collapse into one on reparse, so duplicates are demoted to
	// explicit named places.
	firstOfPair := map[[2]int]int{}
	for p := range g.Net.Places {
		pl := g.Net.Places[p]
		if len(pl.Pre) != 1 || len(pl.Post) != 1 {
			continue
		}
		key := [2]int{pl.Pre[0], pl.Post[0]}
		prev, ok := firstOfPair[key]
		// Prefer the canonical "<pre,post>" name, then the lexicographically
		// smallest, so the choice is stable across parse/write cycles.
		canon := "<" + g.Net.Transitions[pl.Pre[0]].Name + "," + g.Net.Transitions[pl.Post[0]].Name + ">"
		switch {
		case !ok:
			firstOfPair[key] = p
		case g.Net.Places[prev].Name == canon:
			// keep prev
		case pl.Name == canon || pl.Name < g.Net.Places[prev].Name:
			firstOfPair[key] = p
		}
	}
	winner := map[int]bool{}
	for _, p := range firstOfPair {
		if strings.HasPrefix(g.Net.Places[p].Name, "<") {
			winner[p] = true
		}
	}
	// A bare "pre post" arc reparses under the canonical "<pre,post>" name,
	// so a winner whose canonical name belongs to a different place that this
	// rendering emits *by name* would merge with it on reparse. Demote such
	// winners to explicit places. Only emitted names count — a place that is
	// itself written as a bare arc, or dropped entirely (isolated and
	// unmarked), does not collide — and demotion emits the winner's own name,
	// which can trigger further collisions, so iterate to the (unique,
	// order-independent) fixpoint of this monotone closure.
	emitted := map[string]int{}
	for p := range g.Net.Places {
		pl := g.Net.Places[p]
		if winner[p] || (len(pl.Pre) == 0 && len(pl.Post) == 0 && pl.Initial == 0) {
			continue
		}
		emitted[pl.Name] = p
	}
	canonOf := func(p int) string {
		pl := g.Net.Places[p]
		return "<" + g.Net.Transitions[pl.Pre[0]].Name + "," + g.Net.Transitions[pl.Post[0]].Name + ">"
	}
	for changed := true; changed; {
		changed = false
		for p := range winner {
			if q, taken := emitted[canonOf(p)]; taken && q != p {
				delete(winner, p)
				emitted[g.Net.Places[p].Name] = p
				changed = true
			}
		}
	}
	implicit := func(p int) bool { return winner[p] }
	var lines []string
	for t := range g.Net.Transitions {
		var dsts []string
		for _, p := range g.Net.Transitions[t].Post {
			if implicit(p) {
				dsts = append(dsts, g.Net.Transitions[g.Net.Places[p].Post[0]].Name)
			} else {
				dsts = append(dsts, g.Net.Places[p].Name)
			}
		}
		if len(dsts) > 0 {
			sort.Strings(dsts)
			lines = append(lines, g.Net.Transitions[t].Name+" "+strings.Join(dsts, " "))
		}
	}
	for p := range g.Net.Places {
		if implicit(p) {
			continue
		}
		var dsts []string
		for _, t := range g.Net.Places[p].Post {
			dsts = append(dsts, g.Net.Transitions[t].Name)
		}
		switch {
		case len(dsts) > 0:
			sort.Strings(dsts)
			lines = append(lines, g.Net.Places[p].Name+" "+strings.Join(dsts, " "))
		case len(g.Net.Places[p].Pre) == 0 && g.Net.Places[p].Initial > 0:
			// A marked place with no arcs at all would otherwise only show
			// up in .marking, which the parser rejects as an unknown name; a
			// bare line declares it.
			lines = append(lines, g.Net.Places[p].Name)
		}
	}
	// Canonical form: sorted adjacency lines, so that write∘parse is stable
	// regardless of declaration order.
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	var marks []string
	for p, pl := range g.Net.Places {
		if pl.Initial == 0 {
			continue
		}
		name := pl.Name
		if implicit(p) {
			name = "<" + g.Net.Transitions[pl.Pre[0]].Name + "," + g.Net.Transitions[pl.Post[0]].Name + ">"
		}
		if pl.Initial > 1 {
			name = fmt.Sprintf("%s=%d", name, pl.Initial)
		}
		marks = append(marks, name)
	}
	sort.Strings(marks)
	fmt.Fprintf(&b, ".marking { %s }\n.end\n", strings.Join(marks, " "))
	_, err := io.WriteString(w, b.String())
	return err
}
