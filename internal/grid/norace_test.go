//go:build !race

package grid

const raceEnabled = false
