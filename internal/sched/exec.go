// Package sched implements PACMAN's recovery runtime (Sections 4.2-4.4):
// per-log-batch execution schedules instantiated from the global dependency
// graph, coarse-grained piece-set coordination, fine-grained intra-batch
// parallelism from runtime key spaces, and pipelined inter-batch execution.
package sched

import (
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// installExec applies operations directly to the storage engine with no
// latching: the schedule guarantees exclusive key access (Section 4.3.1's
// latch-free property), so installation is a plain store of a single
// version.
type installExec struct {
	ts engine.TS
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
	row.Install(e.ts, next, false, false)
	return nil
}

// Insert stores a full row image.
func (e *installExec) Insert(t *engine.Table, key uint64, vals tuple.Tuple) error {
	row, _ := t.GetOrCreateRow(key)
	row.Install(e.ts, vals.Clone(), false, false)
	return nil
}

// Delete installs a tombstone.
func (e *installExec) Delete(t *engine.Table, key uint64) error {
	row, ok := t.GetRow(key)
	if !ok {
		return nil
	}
	row.Install(e.ts, nil, true, false)
	return nil
}
