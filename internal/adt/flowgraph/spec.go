package flowgraph

import "commlat/internal/core"

// Sig is the graph ADT's signature. The method set refines the paper's
// {relabel, pushFlow, getNeighbors} with the explicit read methods
// (height, excess) a discharge iteration performs, so that every node an
// iteration touches is an argument of some invocation — the property
// that makes locking on arguments sound.
func Sig() *core.ADTSig {
	return &core.ADTSig{Name: "flowgraph", Methods: []core.MethodSig{
		{Name: "getNeighbors", Params: []string{"u"}, HasRet: true},
		{Name: "height", Params: []string{"u"}, HasRet: true},
		{Name: "excess", Params: []string{"u"}, HasRet: true},
		{Name: "relabel", Params: []string{"u"}, HasRet: true},
		{Name: "pushFlow", Params: []string{"u", "v"}, HasRet: true},
	}}
}

// RWSpec is the paper's baseline specification for the graph, and the
// one written by hand: relabel and pushFlow do not commute with any
// method touching the same nodes, while the read methods commute with
// each other freely. Its synthesized scheme is read/write abstract locks
// on nodes — "identical to the conflict detection performed by a
// transactional memory" (§5), hence the "ml" label in Table 1.
func RWSpec() *core.Spec { return core.ReadWrite(Sig(), "getNeighbors", "height", "excess") }

// ExclusiveSpec strengthens RWSpec by §4.1's exclusive move (§5's "ex"
// point): read methods no longer commute with reads of the same nodes,
// turning the read/write node locks into cheaper exclusive locks.
func ExclusiveSpec() *core.Spec { return core.Exclusive(RWSpec()) }

// PartKey is the pure partition function name used by PartitionedSpec.
const PartKey = "part"

// PartitionedSpec applies §4.2's lock coarsening to ExclusiveSpec: node
// disequalities become partition disequalities, and the synthesized
// scheme locks one of nparts partitions per node access (the paper's
// "part" point, with 32 partitions in the evaluation).
func PartitionedSpec() *core.Spec { return core.Partition(ExclusiveSpec(), PartKey) }
