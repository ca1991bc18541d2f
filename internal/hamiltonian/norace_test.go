//go:build !race

package hamiltonian

const raceEnabled = false
