// Good fixture: reference-carrying fields are cleared before release,
// either inline or through a sanitizer method on the object.
package poolgood

import "sync"

type entry struct {
	key  uint64
	name string
	next *entry
}

var pool = sync.Pool{New: func() any { return new(entry) }}

func putEntry(e *entry) {
	e.name = ""
	e.next = nil
	pool.Put(e)
}

func (e *entry) reset() {
	e.name = ""
	e.next = nil
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
