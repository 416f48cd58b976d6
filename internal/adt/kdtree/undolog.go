package kdtree

import "commlat/internal/engine"

// undoLog is how the lock-guarded trees (kd-ml and LockedTree) undo a
// transaction's mutations without a closure per mutation: each
// successful add or remove is one record, chained newest first from the
// transaction's Tx.Attach word, and the tree registers itself once per
// transaction as its Undoer and Releaser. Records are recycled when the
// transaction ends, so the log grows to the high-water mark of live
// mutations and a steady-state mutation allocates nothing. The owning
// tree's mutex guards it.
type undoLog struct {
	recs []undoRec
	free uint32 // first free record: index+1, 0 = none
}

// undoRec is one mutation: p was added (undone by a remove) or removed
// (undone by an add).
type undoRec struct {
	p     Point
	added bool
	prev  uint32 // the transaction's previous record, or the next free one: index+1
}

// owner is a tree that registers for the transactions it logs.
type owner interface {
	engine.Undoer
	engine.Releaser
}

// record logs tx's mutation of p, registering o as tx's undo and release
// hook with the transaction's first record.
func (l *undoLog) record(tx *engine.Tx, o owner, p Point, added bool) {
	head, isNew := tx.Attach(o)
	if isNew {
		tx.OnUndoer(o)
		tx.OnReleaser(o)
	}
	i := l.free
	if i != 0 {
		l.free = l.recs[i-1].prev
	} else {
		l.recs = append(l.recs, undoRec{})
		i = uint32(len(l.recs))
	}
	l.recs[i-1] = undoRec{p: p, added: added, prev: uint32(*head)}
	*head = uint64(i)
}

// undo reverts tx's mutations of t, newest first.
func (l *undoLog) undo(tx *engine.Tx, o owner, t *Tree) {
	for i := uint32(*tx.AttachedWord(o)); i != 0; i = l.recs[i-1].prev {
		if r := &l.recs[i-1]; r.added {
			t.Remove(r.p)
		} else {
			t.Add(r.p)
		}
	}
}

// release returns tx's records to the free list.
func (l *undoLog) release(tx *engine.Tx, o owner) {
	head := tx.AttachedWord(o)
	for i := uint32(*head); i != 0; {
		r := &l.recs[i-1]
		next := r.prev
		r.prev, l.free = l.free, i
		i = next
	}
	*head = 0
}
