package engine

import "commlat/internal/telemetry"

// BatchBody processes one batch of items: txs[i] is a fresh active
// transaction for items[i], and the body records each item's outcome in
// errs[i] (pre-cleared to nil). The contract mirrors the batched
// detector path it is meant to wrap (e.g. intset.CascadeSet.AddBatch):
//
//   - errs[i] == nil: the body finished the item AND committed txs[i]
//     (group commits via CommitBatch encouraged — that is the point).
//   - errs[i] satisfies IsConflict: txs[i] is still active; the
//     executor aborts it and retries the item with backoff.
//   - any other errs[i]: txs[i] is still active; the executor aborts it
//     and cancels the whole run with that error.
//
// The returned error cancels the run directly (items with nil errs are
// still treated as committed). The body must not retain or recycle the
// transactions; the executor returns every shell to the pool.
type BatchBody[T any] func(txs []*Tx, items []T, wl *Worklist[T], errs []error) error

// RunBatched is Run in batch mode: workers drain the worklist in
// batches of opts.BatchSize items (one worklist lock acquisition per
// batch, which also retires the worker's previous batch) and hand each
// batch with a matching set of fresh transactions to body. Items the
// body reports as conflicted are retried one at a time, each as a batch
// of one, with the same randomized backoff as Run, so a batch of
// transient conflicts degrades to the serial loop instead of livelocking
// the whole batch.
func RunBatched[T any](wl *Worklist[T], opts Options, body BatchBody[T]) (Stats, error) {
	return runWorkers(wl, opts, opts.batchSize(), body)
}

// TxCache is a worker-local cache of transaction shells for batch
// loops. GetBatch reserves the whole batch's IDs with one atomic add
// and counts all the begins with one telemetry update, recycling
// shells through a private freelist instead of the shared pool — the
// per-transaction synchronization of GetTx/PutTx amortized across the
// batch. Not safe for concurrent use; each worker owns one.
type TxCache struct{ free []*Tx }

// GetBatch fills txs with fresh active transactions.
func (tc *TxCache) GetBatch(txs []*Tx) {
	n := len(txs)
	if n == 0 {
		return
	}
	base := txIDs.Add(uint64(n)) - uint64(n)
	for i := range txs {
		var tx *Tx
		if k := len(tc.free); k > 0 {
			tx, tc.free[k-1] = tc.free[k-1], nil
			tc.free = tc.free[:k-1]
		} else {
			tx = txPool.Get().(*Tx)
		}
		tx.id = base + uint64(i) + 1
		tx.status = Active
		tx.worker = 0
		tx.item = -1
		txs[i] = tx
	}
	telemetry.CountTxBeginN(n)
}

// PutBatch recycles a batch of finished transactions into the cache.
func (tc *TxCache) PutBatch(txs []*Tx) {
	for _, tx := range txs {
		if tx.status == Active {
			panic("engine: PutBatch on an active transaction")
		}
	}
	tc.free = append(tc.free, txs...)
}

// RunItemsBatched is RunBatched over a fresh worklist seeded from items.
func RunItemsBatched[T any](items []T, opts Options, body BatchBody[T]) (Stats, error) {
	return RunBatched(NewWorklist(items...), opts, body)
}
