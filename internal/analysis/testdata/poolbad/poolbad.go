// Bad fixture: objects reach the pool (and the free stack) with their
// reference-carrying fields still set, pinning whatever they point to
// for as long as the object sits pooled. buf is a []byte — a slice of
// plain scalars is deliberately not a spill field.
package poolbad

import "sync"

type entry struct {
	key  uint64
	name string
	next *entry
	buf  []byte
	kids []*entry
}

var pool = sync.Pool{New: func() any { return new(entry) }}

func putEntry(e *entry) {
	e.key = 0
	pool.Put(e) // name and next still set
}

type cache struct {
	free []*entry
}

func (c *cache) release(e *entry) {
	c.free = append(c.free, e) // free-stack push, nothing cleared
}

type stack struct{ free []*entry }

func (s *stack) put(e *entry) {
	*e = entry{key: e.key, next: e.next} // next kept
	s.free = append(s.free, e)
}

// truncate keeps kids' backing array, which still pins every kid.
func (s *stack) truncate(e *entry) {
	e.name, e.next, e.kids = "", nil, e.kids[:0]
	s.free = append(s.free, e)
}
