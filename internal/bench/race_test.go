//go:build race

package bench

// raceEnabled reports a -race build, under which sync.Pool drops
// objects at random, so pooled transactions allocate.
const raceEnabled = true
