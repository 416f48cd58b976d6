package engine

import "sync"

// UndoLog is how a lock-guarded structure undoes a transaction's
// mutations without a closure per mutation (§3.3.2: an abort applies the
// inverse of each logged method). Each mutation is one record of type R,
// chained newest first from the transaction's Attach word; with its
// first record the log registers as the transaction's Undoer and
// Releaser. On abort the undo callback runs once per record, newest
// first, under the owning structure's mutex. When the transaction ends
// its records are zeroed and recycled, so a steady-state mutation
// allocates nothing.
type UndoLog[R any] struct {
	mu   *sync.Mutex // the owning structure's; guards everything below
	undo func(R)
	recs []undoRec[R]
	free uint32 // first free record: index+1, 0 = none
}

// undoRec is one logged mutation.
type undoRec[R any] struct {
	r    R
	prev uint32 // the transaction's previous record, or the next free one: index+1
}

// NewUndoLog creates the undo log of a structure whose mutex is mu; undo
// applies one record's inverse, and runs with mu held.
func NewUndoLog[R any](mu *sync.Mutex, undo func(R)) *UndoLog[R] {
	return &UndoLog[R]{mu: mu, undo: undo}
}

// Record logs r as tx's newest mutation. The caller holds the owning
// structure's mutex.
func (l *UndoLog[R]) Record(tx *Tx, r R) {
	head, isNew := tx.Attach(l)
	if isNew {
		tx.OnUndoer(l)
		tx.OnReleaser(l)
	}
	i := l.free
	if i != 0 {
		l.free = l.recs[i-1].prev
	} else {
		l.recs = append(l.recs, undoRec[R]{})
		i = uint32(len(l.recs))
	}
	l.recs[i-1] = undoRec[R]{r: r, prev: uint32(*head)}
	*head = uint64(i)
}

// UndoTx undoes tx's records, newest first.
func (l *UndoLog[R]) UndoTx(tx *Tx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := uint32(*tx.AttachedWord(l)); i != 0; i = l.recs[i-1].prev {
		l.undo(l.recs[i-1].r)
	}
}

// ReleaseTx zeroes tx's records and returns them to the free list.
func (l *UndoLog[R]) ReleaseTx(tx *Tx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := tx.AttachedWord(l)
	for i := uint32(*head); i != 0; {
		next := l.recs[i-1].prev
		l.recs[i-1] = undoRec[R]{prev: l.free}
		l.free = i
		i = next
	}
	*head = 0
}

// Records returns the number of records the log has allocated, the
// high-water mark of live ones; only safe with no live transactions.
func (l *UndoLog[R]) Records() int { return len(l.recs) }
