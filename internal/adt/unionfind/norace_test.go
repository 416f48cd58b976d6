//go:build !race

package unionfind

const raceEnabled = false
