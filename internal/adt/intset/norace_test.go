//go:build !race

package intset

const raceEnabled = false
