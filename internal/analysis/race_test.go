//go:build race

package analysis

// raceEnabled reports a -race build, under which type-checking the
// whole module takes several times as long and can find no race.
const raceEnabled = true
