//go:build race

package superglue

// raceEnabled reports whether the tests were built with the race detector,
// which instruments code paths unevenly and so distorts wall-clock ratios.
const raceEnabled = true
