//go:build !race

package kdtree

const raceEnabled = false
