//go:build race

package scf

// raceEnabled reports that the race detector is active; sync.Pool drops
// items randomly under race, so allocation pins are meaningless.
const raceEnabled = true
