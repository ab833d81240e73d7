// Package sched implements PACMAN's recovery runtime (Sections 4.2-4.4):
// per-log-batch execution schedules instantiated from the global dependency
// graph, coarse-grained piece-set coordination, fine-grained intra-batch
// parallelism from runtime key spaces, and pipelined inter-batch execution.
package sched

import (
	"pacman/internal/engine"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/wal"
)

// installExec applies operations directly to the storage engine with no
// latching: the schedule guarantees exclusive key access (Section 4.3.1's
// latch-free property), so installation is a plain store of a single
// version. Each replay worker owns one, and draws the versions it installs
// from its own pool; a nil pool allocates each version.
type installExec struct {
	ts   engine.TS
	pool *mvcc.Pool
}

// install makes data (or a tombstone) the row's single version.
func (e *installExec) install(row *engine.Row, data tuple.Tuple, deleted bool) {
	row.InstallPrepared(e.pool.Prepare(e.ts, data, deleted), false)
}

// Read returns the currently replayed value of the row.
func (e *installExec) Read(t *engine.Table, key uint64) (tuple.Tuple, error) {
	row, ok := t.GetRow(key)
	if !ok {
		return nil, nil
	}
	return row.LatestData(), nil
}

// Write merges column updates over the row's replayed state.
func (e *installExec) Write(t *engine.Table, key uint64, up []proc.ColUpdate) error {
	row, _ := t.GetOrCreateRow(key)
	base := row.LatestData()
	next := make(tuple.Tuple, t.Schema().NumColumns())
	copy(next, base)
	for _, u := range up {
		if u.Col < len(next) {
			next[u.Col] = u.Val
		}
	}
	e.install(row, next, false)
	return nil
}

// Insert stores a full row image.
func (e *installExec) Insert(t *engine.Table, key uint64, vals tuple.Tuple) error {
	row, _ := t.GetOrCreateRow(key)
	e.install(row, vals.Clone(), false)
	return nil
}

// Delete installs a tombstone.
func (e *installExec) Delete(t *engine.Table, key uint64) error {
	row, ok := t.GetRow(key)
	if !ok {
		return nil
	}
	e.install(row, nil, true)
	return nil
}

// installImage applies one logged after-image of an ad-hoc transaction;
// Submit has already rejected images of tables the catalog lacks.
func (e *installExec) installImage(t *engine.Table, w *wal.WriteImage) {
	row, _ := t.GetOrCreateRow(w.Key)
	e.install(row, w.After, w.Deleted)
}
