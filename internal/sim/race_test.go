//go:build race

package sim_test

// raceEnabled reports a test binary built with the race detector. Its
// compiler does not fuse append(s, make([]T, n)...), which slices.Grow
// uses, so the byte counts of such a binary are not the program's.
const raceEnabled = true
