// Bad fixture: a bare //commvet:ignore. It suppresses the underlying
// padcheck finding but is itself reported — suppressions must say
// why the invariant holds anyway.
package ignorebad

//commvet:ignore
type shard struct {
	count uint64
	_     [16]byte
}

var shards [8]shard

func bump(i int) { shards[i].count++ }
