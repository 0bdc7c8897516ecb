//go:build race

package serve

// raceEnabled reports that the race detector is on: allocation budgets
// read their race ceilings under it, since it allocates on its own and its
// sync.Pool drops a share of what is put back.
const raceEnabled = true
