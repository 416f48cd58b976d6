//go:build !race

package preflow

const raceEnabled = false
