//go:build !race

package sim_test

// raceEnabled reports a test binary built with the race detector.
const raceEnabled = false
