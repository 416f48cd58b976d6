// Good fixture: a reasoned //commvet:ignore suppresses the finding and
// is not itself reported.
package ignoregood

//commvet:ignore one goroutine bumps every shard, so neighbours sharing a line never contend
type shard struct {
	count uint64
	_     [16]byte
}

var shards [8]shard

func bump(i int) { shards[i].count++ }
