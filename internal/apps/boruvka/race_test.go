//go:build race

package boruvka

// raceEnabled reports a -race build, under which sync.Pool drops
// objects at random, so pooled transactions and buffers allocate.
const raceEnabled = true
