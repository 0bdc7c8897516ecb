//go:build race

package sim

// raceEnabled reports that the race detector is on: allocation guards skip
// under it.
const raceEnabled = true
