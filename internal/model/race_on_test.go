//go:build race

package model

// raceEnabled reports that the race detector is on: tests of sequential,
// compute-bound code shrink their inputs under it.
const raceEnabled = true
