package apps

import (
	"commlat/internal/abslock"
	"commlat/internal/adt/accum"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/boruvka"
	"commlat/internal/core"
)

// Point is one shipped point of an ADT's commutativity lattice. Each ADT
// has one hand-written specification, its top point; every other point
// is a §4 move from its parent point of the same ADT.
type Point struct {
	ADT, Name string            // ADT is the specification's Sig.Name
	Parent    string            // the point Move strengthens; "" for the top
	Move      Move              // zero for the top
	Spec      func() *core.Spec // the constructor the detectors call
}

// Move is a §4 strengthening: Apply maps a spec to one below it.
type Move struct {
	Name  string
	Apply func(*core.Spec) *core.Spec
}

var (
	strengthen = Move{"SIMPLE strengthening (§4.1)", core.StrengthenToSimple}
	exclusive  = Move{"exclusive locks (§4.1)", core.Exclusive}
	bottom     = Move{"⊥ (§4.1)", func(s *core.Spec) *core.Spec { return core.Bottom(s.Sig) }}
)

// partition is §4.2's lock coarsening by the pure key function key.
func partition(key string) Move {
	return Move{"partitioning by " + key + " (§4.2)", func(s *core.Spec) *core.Spec { return core.Partition(s, key) }}
}

// Specs lists every shipped lattice point, ADT by ADT, each ADT's top
// first and every parent before its children. `commlat specs`, commvet's
// specvet pass and the registry tests read this list.
func Specs() []Point {
	return []Point{
		{ADT: "set", Name: "precise", Spec: intset.PreciseSpec},
		{ADT: "set", Name: "rw", Parent: "precise", Move: strengthen, Spec: intset.RWSpec},
		{ADT: "set", Name: "ex", Parent: "rw", Move: exclusive, Spec: intset.ExclusiveSpec},
		{ADT: "set", Name: "part", Parent: "rw", Move: partition(intset.PartitionKey), Spec: intset.PartitionedSpec},
		{ADT: "set", Name: "bottom", Parent: "precise", Move: bottom, Spec: intset.BottomSpec},
		{ADT: "kdtree", Name: "precise", Spec: kdtree.Spec},
		{ADT: "unionfind", Name: "precise", Spec: unionfind.Spec},
		// Table 1's preflow variants: ml, ex and part.
		{ADT: "flowgraph", Name: "rw", Spec: flowgraph.RWSpec},
		{ADT: "flowgraph", Name: "ex", Parent: "rw", Move: exclusive, Spec: flowgraph.ExclusiveSpec},
		{ADT: "flowgraph", Name: "part", Parent: "ex", Move: partition(flowgraph.PartKey), Spec: flowgraph.PartitionedSpec},
		{ADT: "accumulator", Name: "precise", Spec: accum.Spec},
		{ADT: "memory", Name: "rw", Spec: abslock.MemorySpec},
		{ADT: "compedges", Name: "rw", Spec: boruvka.CompsSpec},
	}
}
