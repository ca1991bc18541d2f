//go:build !race

package ion

const raceEnabled = false
