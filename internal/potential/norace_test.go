//go:build !race

package potential

const raceEnabled = false
