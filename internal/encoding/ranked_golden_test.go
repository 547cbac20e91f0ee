package encoding

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stg"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const rankedGolden = "testdata/ranked.golden"

// rankedFirstRound is how many first-round survivors the flow continues
// from: firstRound ranks with twice the five-solution limit core uses.
const rankedFirstRound = 10

// rankedClearLines bounds a round printed line by line; a longer round is
// pinned by the SHA-256 of all its lines with the first few in clear.
const (
	rankedClearLines = 30
	rankedHeadLines  = 10
)

type namedSTG struct {
	name string
	g    *stg.STG
}

// rankedModels is the golden corpus: every testdata specification and the
// conflict-rich CSC rings of the given sizes.
func rankedModels(t *testing.T, rings ...int) []namedSTG {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.g"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	sort.Strings(files)
	var out []namedSTG
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.ParseG(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, namedSTG{filepath.Base(path), g})
	}
	for _, k := range rings {
		out = append(out, namedSTG{fmt.Sprintf("gen/cscring-%d", k), gen.CSCRing(k)})
	}
	return out
}

// writeRound renders one ranking round with no limit: every survivor's
// description and (conflicts, literals, order) key in rank order, or the
// error the round fails with.
func writeRound(b *strings.Builder, title string, g *stg.STG, name string, all []scored, err error) {
	fmt.Fprintf(b, "-- %s\n", title)
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
		return
	}
	lines := make([]string, len(all))
	for i, s := range all {
		lines[i] = fmt.Sprintf("%s | %d %d %d\n", describeInsertion(g, name, s.pair.r, s.pair.f),
			s.key[0], s.key[1], s.key[2])
	}
	writeLines(b, "survivors", lines)
}

// writeLines writes a round's lines under a count of noun: in clear up to
// rankedClearLines, else as the SHA-256 of all of them and the first
// rankedHeadLines.
func writeLines(b *strings.Builder, noun string, lines []string) {
	if len(lines) <= rankedClearLines {
		fmt.Fprintf(b, "%d %s\n", len(lines), noun)
		b.WriteString(strings.Join(lines, ""))
		return
	}
	fmt.Fprintf(b, "%d %s, sha256 %x, first %d:\n", len(lines), noun,
		sha256.Sum256([]byte(strings.Join(lines, ""))), rankedHeadLines)
	b.WriteString(strings.Join(lines[:rankedHeadLines], ""))
}

// TestRankedGolden pins the full ranking of the CSC insertion search: for
// every corpus model, the base round and the round after each of the first
// rankedFirstRound survivors that still has conflicts (the candidates
// firstRound continues from). Regenerate with -args -update only for an
// intended change of the search's outcome.
func TestRankedGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range rankedModels(t, 2, 3, 4) {
		fmt.Fprintf(&b, "== %s\n", m.name)
		ctx := newEvalCtx(Options{Workers: 2})
		all, err := scoreInsertions(explored(t, m.g), "csc0", 0, ctx)
		writeRound(&b, "base", m.g, "csc0", all, err)
		for i, s := range all {
			if i == rankedFirstRound {
				break
			}
			if s.key[0] == 0 {
				continue
			}
			cand, err := InsertSignalAt(m.g, "csc0", s.pair.r, s.pair.f)
			if err != nil {
				t.Fatalf("%s: rebuilding survivor %d: %v", m.name, i, err)
			}
			next, err := scoreInsertions(explored(t, cand), "csc1", 0, ctx)
			writeRound(&b, fmt.Sprintf("after %s", describeInsertion(m.g, "csc0", s.pair.r, s.pair.f)),
				cand, "csc1", next, err)
		}
	}
	matchGolden(t, rankedGolden, b.String())
}

// matchGolden compares got with the golden file at path, or rewrites the
// file under -update.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -args -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
