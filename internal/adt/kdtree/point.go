// Package kdtree implements the paper's kd-tree ADT (§2.5): a spatial
// index over 3-D points supporting add, remove and nearest-neighbour
// queries, with interior bounding boxes to prune searches. It ships the
// commutativity specification of figure 4, a memory-level variant (kd-ml:
// read/write locks on tree nodes, where a mutation that changes a box
// conflicts with every query that descended into it) and a forward-gatekept
// variant (kd-gk) built from the precise specification — the pair
// compared in the clustering case study (Table 1, figure 11).
package kdtree

import (
	"fmt"
	"math"
)

// Point is a point in 3-space. Being a comparable array it doubles as a
// core.Value: specifications compare points with = and ≠ directly.
type Point [3]float64

// None is the "point at infinity" the paper uses as the nearest
// neighbour of a point in a singleton data set.
var None = Point{math.Inf(1), math.Inf(1), math.Inf(1)}

// IsNone reports whether p is the point at infinity.
func (p Point) IsNone() bool { return math.IsInf(p[0], 1) }

func (p Point) String() string {
	if p.IsNone() {
		return "∞"
	}
	return fmt.Sprintf("(%g,%g,%g)", p[0], p[1], p[2])
}

// DistSq returns the squared Euclidean distance between two points; it is
// the "dist" metric of figure 4 (squared form — monotone in the true
// distance, so all comparisons in the specification are unaffected).
func DistSq(a, b Point) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return dx*dx + dy*dy + dz*dz
}

// Less orders points lexicographically; nearest-neighbour ties break
// toward the smaller point so that queries are deterministic (a
// requirement for nearest to commute with itself).
func Less(a, b Point) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// closer reports whether candidate a at distance da beats candidate b at
// distance db under the deterministic (distance, lexicographic) order.
func closer(a Point, da float64, b Point, db float64) bool {
	if da != db {
		return da < db
	}
	return Less(a, b)
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point
}

// emptyBox is the identity for Extend.
var emptyBox = Box{
	Min: Point{math.Inf(1), math.Inf(1), math.Inf(1)},
	Max: Point{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
}

// Extend grows the box to include p.
func (b Box) Extend(p Point) Box {
	for i := 0; i < 3; i++ {
		if p[i] < b.Min[i] {
			b.Min[i] = p[i]
		}
		if p[i] > b.Max[i] {
			b.Max[i] = p[i]
		}
	}
	return b
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	for i := 0; i < 3; i++ {
		if o.Min[i] < b.Min[i] {
			b.Min[i] = o.Min[i]
		}
		if o.Max[i] > b.Max[i] {
			b.Max[i] = o.Max[i]
		}
	}
	return b
}

// onBoundary reports whether p touches the box's surface in some
// dimension — the condition under which removing p may shrink the box.
func onBoundary(b Box, p Point) bool {
	for i := 0; i < 3; i++ {
		if p[i] == b.Min[i] || p[i] == b.Max[i] {
			return true
		}
	}
	return false
}

// MinDistSq returns the squared distance from q to the nearest point of
// the box (0 when q is inside), the pruning bound for nearest queries.
func (b Box) MinDistSq(q Point) float64 {
	var d float64
	for i := 0; i < 3; i++ {
		if q[i] < b.Min[i] {
			t := b.Min[i] - q[i]
			d += t * t
		} else if q[i] > b.Max[i] {
			t := q[i] - b.Max[i]
			d += t * t
		}
	}
	return d
}
