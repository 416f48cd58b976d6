//go:build !race

package accum

const raceEnabled = false
