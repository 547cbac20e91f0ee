package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// writeRuns writes canned `go test -bench -benchmem` output to a temp file.
func writeRuns(t *testing.T, name, text string) string {
	t.Helper()
	path := t.TempDir() + "/" + name
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Two interleaved runs per side at GOMAXPROCS 2: BuildSG's ranges separate,
// Verify's overlap, and FullFlow/w4 ran on the change only.
const (
	parentRuns = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkBuildSG/muller-8-2         	      14	  80000000 ns/op	     92736 states	71900000 B/op	     190 allocs/op
BenchmarkVerify/muller-8-2          	      12	  95000000 ns/op	     92736 states	18070000 B/op	     300 allocs/op
PASS
ok  	repro	4.1s
BenchmarkBuildSG/muller-8-2         	      14	  87000000 ns/op	     92736 states	71900000 B/op	     190 allocs/op
BenchmarkVerify/muller-8-2          	      12	  80000000 ns/op	     92736 states	18070000 B/op	     300 allocs/op
PASS
`
	changeRuns = `BenchmarkBuildSG/muller-8-2         	      18	  58000000 ns/op	     92736 states	47300000 B/op	     120 allocs/op
BenchmarkVerify/muller-8-2          	      16	  82000000 ns/op	     92736 states	 5940000 B/op	     110 allocs/op
BenchmarkFullFlow/muller-8/w4-2     	       7	 150000000 ns/op
BenchmarkBuildSG/muller-8-2         	      18	  69000000 ns/op	     92736 states	47300000 B/op	     120 allocs/op
BenchmarkVerify/muller-8-2          	      16	  43000000 ns/op	     92736 states	 5940000 B/op	     110 allocs/op
`
)

func TestABRanges(t *testing.T) {
	var out bytes.Buffer
	if err := runAB(&out, writeRuns(t, "parent.txt", parentRuns), writeRuns(t, "change.txt", changeRuns), 2); err != nil {
		t.Fatalf("equal states failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"| BuildSG/muller-8 | 80.0 ms–87.0 ms | 58.0 ms–69.0 ms | 71.90 MB | 47.30 MB | 190 | 120 | **faster** |",
		"| Verify/muller-8 | 80.0 ms–95.0 ms | 43.0 ms–82.0 ms | 18.07 MB | 5.94 MB | 300 | 110 | overlap |",
		"only in the change's runs: FullFlow/muller-8/w4",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}

	// Runs 40 ns and 60 bytes apart format alike, so each side prints one
	// value, not a range with equal ends such as "823.2 KB–823.2 KB".
	out.Reset()
	if err := runAB(&out, writeRuns(t, "parent.txt", nearRuns), writeRuns(t, "change.txt", nearRuns), 2); err != nil {
		t.Fatal(err)
	}
	if want := "| SolveCSC/vme-read | 1.9 ms | 1.9 ms | 823.2 KB | 823.2 KB | 12460 | 12460 | overlap |"; !strings.Contains(out.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, out.String())
	}
}

// nearRuns are two runs of one row whose ns/op and B/op differ below the
// printed precision.
const nearRuns = `BenchmarkSolveCSC/vme-read-2         	     600	   1900000 ns/op	  823180 B/op	   12460 allocs/op
BenchmarkSolveCSC/vme-read-2         	     600	   1900040 ns/op	  823240 B/op	   12460 allocs/op
`

func TestABSlowerRow(t *testing.T) {
	var out bytes.Buffer
	if err := runAB(&out, writeRuns(t, "change.txt", changeRuns), writeRuns(t, "parent.txt", parentRuns), 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| BuildSG/muller-8 | 58.0 ms–69.0 ms | 80.0 ms–87.0 ms | 47.30 MB | 71.90 MB | 120 | 190 | **slower** |") {
		t.Fatalf("slower row not flagged:\n%s", out.String())
	}
}

func TestABStatesDiffer(t *testing.T) {
	changed := strings.Replace(changeRuns, "43000000 ns/op	     92736 states", "43000000 ns/op	     92735 states", 1)
	var out bytes.Buffer
	err := runAB(&out, writeRuns(t, "parent.txt", parentRuns), writeRuns(t, "change.txt", changed), 2)
	if err == nil || !strings.Contains(err.Error(), "Verify/muller-8 (92736 against 92735–92736)") ||
		strings.Contains(err.Error(), "BuildSG") {
		t.Fatalf("states mismatch not reported for Verify alone: %v", err)
	}
}

func TestABRejectsEmptyRuns(t *testing.T) {
	if err := runAB(&bytes.Buffer{}, writeRuns(t, "parent.txt", "PASS\n"), writeRuns(t, "change.txt", changeRuns), 2); err == nil {
		t.Fatal("a file without benchmark lines was accepted")
	}
}

// SolveCSC rows report the CSC search's account next to ns/op; a change in
// any of its counts fails the comparison, and equal counts pass.
const searchRuns = `BenchmarkSolveCSC/cscring-4/flow-2  	      80	  13500000 ns/op	     30916 candidates	      8736 explored	        20.00 rebuilt	 4330000 B/op	    4890 allocs/op
BenchmarkSolveCSC/vme-read-2         	     600	   1900000 ns/op	       132.0 candidates	       112.0 explored	        32.00 rebuilt	  823000 B/op	   12460 allocs/op
`

func TestABSearchCountsDiffer(t *testing.T) {
	if err := runAB(&bytes.Buffer{}, writeRuns(t, "parent.txt", searchRuns), writeRuns(t, "change.txt", searchRuns), 2); err != nil {
		t.Fatalf("equal search counts failed: %v", err)
	}
	for _, tc := range []struct{ from, to, want string }{
		{"30916 candidates", "30917 candidates", "candidates of SolveCSC/cscring-4/flow (30916 against 30917)"},
		{"8736 explored", "8737 explored", "explored of SolveCSC/cscring-4/flow (8736 against 8737)"},
		{"32.00 rebuilt", "33.00 rebuilt", "rebuilt of SolveCSC/vme-read (32 against 33)"},
	} {
		changed := strings.Replace(searchRuns, tc.from, tc.to, 1)
		err := runAB(&bytes.Buffer{}, writeRuns(t, "parent.txt", searchRuns), writeRuns(t, "change.txt", changed), 2)
		if want := "ab: counts differ between the parent and the change: " + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s → %s: got %v, want %q", tc.from, tc.to, err, want)
		}
	}
}
