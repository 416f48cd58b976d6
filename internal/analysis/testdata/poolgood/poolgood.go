// Good fixture: reference-carrying fields are cleared before release,
// either inline or through a sanitizer method on the object.
package poolgood

import "sync"

type entry struct {
	key  uint64
	name string
	next *entry
	kids []*entry
}

var pool = sync.Pool{New: func() any { return new(entry) }}

func putEntry(e *entry) {
	e.name, e.next, e.kids = "", nil, nil
	pool.Put(e)
}

func (e *entry) reset() {
	e.name, e.next, e.kids = "", nil, nil
}

func recycle(e *entry) {
	e.reset()
	pool.Put(e)
}

type stack struct{ free []*entry }

// put resets e in one assignment that keeps its key.
func (s *stack) put(e *entry) {
	*e = entry{key: e.key}
	s.free = append(s.free, e)
}

// truncate clears kids before keeping their backing array.
func (s *stack) truncate(e *entry) {
	clear(e.kids)
	e.name, e.next, e.kids = "", nil, e.kids[:0]
	s.free = append(s.free, e)
}
