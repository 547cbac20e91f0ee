package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/stg"
)

// outcome is the class of an op's result: a verified netlist ("ok") or the
// class of the typed failure the flow reports.
type outcome string

const (
	outcomeOK            outcome = "ok"
	outcomeCSCUnsolved   outcome = "csc-unsolved"
	outcomeNotPersistent outcome = "not-persistent"
)

// expected is the hand-written outcome table: every spec a workload runs.
// A renamed serve-mix variant has its base spec's outcome.
var expected = map[string]outcome{
	// csc-search
	"vme-read":       outcomeOK,
	"vme-read-write": outcomeOK,
	"cscring-2":      outcomeOK,
	"cscring-3":      outcomeOK,
	"cscring-4":      outcomeCSCUnsolved,
	// concurrent-sg
	"muller-5":       outcomeOK,
	"muller-6":       outcomeOK,
	"muller-8":       outcomeOK,
	"fork-join":      outcomeOK,
	"pipeline-stage": outcomeOK,
	// serve-mix adds the rest of the testdata corpus
	"arbiter-race":  outcomeOK,
	"dummy-hs":      outcomeOK,
	"handshake":     outcomeOK,
	"muller4":       outcomeOK,
	"phil-deadlock": outcomeNotPersistent,
}

// classify maps a flow error onto its outcome class. An unknown error keeps
// its message, so it matches no entry of expected.
func classify(err error) outcome {
	if err == nil {
		return outcomeOK
	}
	return classifyMessage(err.Error())
}

func classifyMessage(msg string) outcome {
	switch {
	case strings.Contains(msg, "CSC not solved within 3 signal insertions"):
		return outcomeCSCUnsolved
	case strings.Contains(msg, "specification is not persistent"):
		return outcomeNotPersistent
	}
	return outcome("error: " + msg)
}

// generated are the specs built by the gen families; every other spec is
// read from testdata/<name>.g.
var generated = map[string]func() *stg.STG{
	"cscring-2": func() *stg.STG { return gen.CSCRing(2) },
	"cscring-3": func() *stg.STG { return gen.CSCRing(3) },
	"cscring-4": func() *stg.STG { return gen.CSCRing(4) },
	"muller-5":  func() *stg.STG { return gen.MullerPipeline(5) },
	"muller-6":  func() *stg.STG { return gen.MullerPipeline(6) },
	"muller-8":  func() *stg.STG { return gen.MullerPipeline(8) },
}

// spec is one input of a workload: its name and the .g text an op parses.
type spec struct {
	name string
	text string
}

// loadSpecs generates or reads the named specs and serializes each to .g
// text, so every op starts from text, as cmd/synth does.
func loadSpecs(root string, names []string) ([]spec, error) {
	out := make([]spec, len(names))
	for i, name := range names {
		if _, ok := expected[name]; !ok {
			return nil, fmt.Errorf("bench: spec %s has no expected outcome", name)
		}
		out[i].name = name
		if mk, ok := generated[name]; ok {
			var b strings.Builder
			if err := mk().WriteG(&b); err != nil {
				return nil, fmt.Errorf("bench: serializing %s: %w", name, err)
			}
			out[i].text = b.String()
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, "testdata", name+".g"))
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		out[i].text = string(data)
	}
	return out, nil
}

// renameSignals returns the .g text with every signal name given the
// prefix: a new content address (cache key) for the same engine work. The
// text keeps its token order, so the parsed net is built in the same order.
// A common prefix keeps the signals' relative name order.
func renameSignals(text, prefix string) (string, error) {
	g, err := stg.ParseG(strings.NewReader(text))
	if err != nil {
		return "", err
	}
	// label renames a transition label of a declared signal ("a+", "a-/1")
	// and leaves place and dummy names alone, the rule ParseG applies.
	label := func(tok string) string {
		body, inst := tok, ""
		if i := strings.IndexByte(tok, '/'); i >= 0 {
			body, inst = tok[:i], tok[i:]
		}
		if len(body) < 2 || !strings.ContainsRune("+-~", rune(body[len(body)-1])) {
			return tok
		}
		if g.SignalIndex(body[:len(body)-1]) < 0 {
			return tok
		}
		return prefix + body + inst
	}
	// token also renames the transitions inside an implicit-place name
	// "<a+,b->" (with an optional "=k" marking count), wherever it appears.
	token := func(tok string) string {
		open, close := strings.IndexByte(tok, '<'), strings.LastIndexByte(tok, '>')
		if open < 0 || close < open {
			return label(tok)
		}
		parts := strings.SplitN(tok[open+1:close], ",", 2)
		if len(parts) != 2 {
			return tok
		}
		return tok[:open+1] + label(parts[0]) + "," + label(parts[1]) + tok[close:]
	}
	var out strings.Builder
	graph := false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			out.WriteString(line + "\n")
			continue
		}
		switch fields[0] {
		case ".inputs", ".outputs", ".internal":
			for i := 1; i < len(fields); i++ {
				fields[i] = prefix + fields[i]
			}
		case ".graph":
			graph = true
		case ".marking":
			graph = false
			for i := 1; i < len(fields); i++ {
				fields[i] = token(fields[i])
			}
		default:
			if graph && !strings.HasPrefix(fields[0], ".") {
				for i := range fields {
					fields[i] = token(fields[i])
				}
			}
		}
		out.WriteString(strings.Join(fields, " ") + "\n")
	}
	return out.String(), nil
}

// serveSpec is one base spec of the serve-mix catalog.
type serveSpec struct {
	name string
	// share is the spec's share of all requests.
	share float64
	// variants is the number of distinct renamed variants as a share of
	// all requests; 0 means a single variant.
	variants float64
}

// serveCatalog is the serve-mix traffic: the testdata corpus but
// vme-read-write (see README.md: the cold runs that would set p99 need more
// CPU than the daemon has). Variant counts set the miss share near a
// quarter. vme-read's 2% of cold runs are the slowest requests, so p99 (the
// top 1%) falls in the middle of that cluster. phil-deadlock fails, so it
// is never cached and every request for it runs the engine.
var serveCatalog = []serveSpec{
	{"handshake", 0.12, 0.032},
	{"dummy-hs", 0.12, 0.032},
	{"fork-join", 0.12, 0.032},
	{"pipeline-stage", 0.12, 0.032},
	{"arbiter-race", 0.12, 0.032},
	{"muller4", 0.10, 0.017},
	{"vme-read", 0.26, 0.02},
	{"phil-deadlock", 0.04, 0},
}

// serveRequest is one request of the open-loop schedule.
type serveRequest struct {
	at      time.Duration // due time from the start of the window
	spec    int           // index into the catalog
	variant int
}

// planRequests draws the serve-mix schedule: n requests split over the
// catalog by share, each spec's requests split over its variants by a Zipf
// profile (every variant requested at least once), in seeded random order,
// at due times of a Poisson process conditioned on n arrivals in window.
// It returns the variant count of every spec and the schedule.
func planRequests(cat []serveSpec, n int, window time.Duration, seed int64) ([]int, []serveRequest) {
	shares := make([]float64, len(cat))
	for i, s := range cat {
		shares[i] = s.share
	}
	perSpec := apportion(n, shares)
	variants := make([]int, len(cat))
	var reqs []serveRequest
	for i, s := range cat {
		v := int(math.Round(s.variants * float64(n)))
		if v < 1 {
			v = 1
		}
		if v > perSpec[i] {
			v = perSpec[i]
		}
		variants[i] = v
		if perSpec[i] == 0 {
			continue
		}
		zipf := make([]float64, v)
		for k := range zipf {
			zipf[k] = 1 / float64(k+1)
		}
		for k, c := range apportion(perSpec[i]-v, zipf) {
			for j := 0; j <= c; j++ {
				reqs = append(reqs, serveRequest{spec: i, variant: k})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	at := make([]float64, len(reqs))
	for i := range at {
		at[i] = rng.Float64()
	}
	sort.Float64s(at)
	for i := range reqs {
		reqs[i].at = time.Duration(at[i] * float64(window))
	}
	return variants, reqs
}

// apportion splits total into integer parts proportional to weights by the
// largest-remainder rule, ties to the lower index.
func apportion(total int, weights []float64) []int {
	out := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return out
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	rem := make([]float64, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		out[i] = int(exact)
		rem[i] = exact - float64(out[i])
		given += out[i]
	}
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rem[idx[a]] > rem[idx[b]] })
	for k := 0; given < total; k++ {
		out[idx[k%len(idx)]]++
		given++
	}
	return out
}
