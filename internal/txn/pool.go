package txn

import "sync"

// Commit-record recycling. A Committed is allocated (or reused) by the
// worker at commit, handed to a logger by Drain/DrainInto, held in the
// log set's pending set until its epoch is covered by the persistent epoch,
// and finally released: its future is resolved and the record has no
// remaining owner. At that point — and only then — the wal release path
// returns it here so the next commit on any worker reuses it, Writes
// backing array included. This keeps the execute→commit→encode→release
// pipeline allocation-free in steady state.
//
// Ownership rules (see also README "Performance"):
//   - Whoever holds a *Committed drained from a worker owns it. Only the
//     wal release path recycles; every other consumer (tests, tools) just
//     lets records go to the GC, which is always safe.
//   - Recycle only after the record's Future has resolved: the future is
//     the last client-visible handle, and RecycleCommitted enforces the
//     invariant by dropping (not pooling) any record whose future is still
//     pending.
//   - A recycled record must not be reachable from anywhere: callers clear
//     their own containers (the log set's pending set and the worker's
//     buffer compact in place and clear vacated slots for this reason).

var committedPool = sync.Pool{New: func() any { return new(Committed) }}

// newCommitted returns a cleared commit record, reusing a recycled one when
// available. Its Writes slice may carry capacity from an earlier life;
// callers append into it.
func newCommitted() *Committed {
	return committedPool.Get().(*Committed)
}

// RecycleCommitted returns fully released commit records to the pool. It is
// called by the wal release path after futures are resolved.
//
// A record whose Future has not resolved is never pooled: it is skipped and
// left to the garbage collector, so a pipeline bug can at worst leak, never
// corrupt a client-visible result.
func RecycleCommitted(cs []*Committed) {
	for _, c := range cs {
		RecycleCommittedOne(c)
	}
}

// RecycleCommittedOne recycles a single commit record (see
// RecycleCommitted).
func RecycleCommittedOne(c *Committed) {
	if c == nil {
		return
	}
	if f := c.Future; f != nil && !f.Resolved() {
		return
	}
	clear(c.Writes)
	ws := c.Writes[:0]
	*c = Committed{Writes: ws}
	committedPool.Put(c)
}
