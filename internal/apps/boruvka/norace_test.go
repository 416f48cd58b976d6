//go:build !race

package boruvka

const raceEnabled = false
