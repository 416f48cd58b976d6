// Package stm is the memory-level conflict detection baseline: an
// object-granularity software transactional memory with eager acquisition
// and visible readers, standing in for DSTM2 in the paper's evaluation
// (§5). Conflicts are raised when a transaction writes an object another
// live transaction has read or written, or reads an object another has
// written — the concrete-commutativity specification FC of §4.3.
//
// The memory-level variants kd-ml and uf-ml, and intset's STMSet, guard
// their objects with Obj handles, so their conflict behaviour is exactly
// object/memory-level, in contrast to the semantic detectors in abslock
// and gatekeeper. (The flow graph's ml point is its read/write
// specification synthesized into abstract locks.)
package stm

import (
	"sync"

	"commlat/internal/engine"
)

// Obj is a conflict handle: one unit of memory-level conflict detection.
// The zero value is ready to use.
type Obj struct {
	mu      sync.Mutex
	readers map[*engine.Tx]struct{}
	writer  *engine.Tx
}

// Read acquires the object in read mode for tx. It conflicts if another
// live transaction holds the object in write mode. Acquisitions are held
// until the transaction ends.
func (o *Obj) Read(tx *engine.Tx) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.writer != nil && o.writer != tx {
		return engine.ConflictBy(o.writer.ID(), "stm: object written by another transaction")
	}
	if o.readers == nil {
		o.readers = make(map[*engine.Tx]struct{})
	}
	if _, ok := o.readers[tx]; !ok && o.writer != tx {
		o.readers[tx] = struct{}{}
		tx.OnReleaser(o)
	}
	return nil
}

// Write acquires the object in write mode for tx. It conflicts if any
// other live transaction holds the object in either mode.
func (o *Obj) Write(tx *engine.Tx) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.writer != nil && o.writer != tx {
		return engine.ConflictBy(o.writer.ID(), "stm: object written by another transaction")
	}
	for r := range o.readers {
		if r != tx {
			return engine.ConflictBy(r.ID(), "stm: object read by another transaction")
		}
	}
	if o.writer == tx {
		return nil
	}
	if _, wasReader := o.readers[tx]; !wasReader {
		tx.OnReleaser(o)
	} else {
		delete(o.readers, tx) // upgrade: the write hook subsumes the read
	}
	o.writer = tx
	return nil
}

// ReleaseTx drops tx's hold on the object; the Obj is registered
// directly as its own transaction release hook (engine.Releaser), so
// acquisition allocates no closure.
func (o *Obj) ReleaseTx(tx *engine.Tx) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.readers, tx)
	if o.writer == tx {
		o.writer = nil
	}
}
