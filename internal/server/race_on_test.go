//go:build race

package server

// raceEnabled reports whether the race detector is on; it changes
// allocation counts, so allocation budgets skip under it.
const raceEnabled = true
