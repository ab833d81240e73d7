// Package checkpoint implements transactionally consistent checkpointing
// and checkpoint recovery (paper Section 2.2 / 2.3).
//
// A checkpoint is taken at a snapshot timestamp derived from the safe
// epoch: every transaction at or below the safe epoch has fully installed
// its versions and no future transaction can commit below it, so reading
// each row at the snapshot timestamp through its version chain yields a
// consistent cut while transactions keep running (multi-version storage
// makes the checkpoint non-blocking, as the paper notes for MVCC systems).
//
// Checkpoints compatible with physical logging additionally record each
// row's physical slot ("the content and the location of each tuple"), and
// their restore path rebuilds the slab at the recorded addresses with index
// reconstruction deferred; logical/command checkpoints record contents only
// and rebuild the index inline during restore (Section 2.3).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"pacman/internal/engine"
	"pacman/internal/frame"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
)

// Config tunes checkpointing.
type Config struct {
	// Threads is the number of concurrent checkpoint writer threads
	// (the paper assigns one per SSD).
	Threads int
	// IncludeSlots records physical slots per row (physical-logging
	// compatible checkpoints).
	IncludeSlots bool
	// ShardsPerTable splits each table into this many files for parallel
	// restore. Defaults to Threads.
	ShardsPerTable int
}

// ManifestName returns the manifest file of checkpoint id.
func ManifestName(id uint32) string { return fmt.Sprintf("ckpt-%06d-manifest", id) }

func shardName(id uint32, tableID, shard int) string {
	return fmt.Sprintf("ckpt-%06d-t%03d-s%03d", id, tableID, shard)
}

// Manifest describes one completed checkpoint.
type Manifest struct {
	ID           uint32
	TS           engine.TS
	IncludeSlots bool
	// Tables maps table ID to its shard count.
	Tables map[int]int
	// Rows is the total row count (reporting).
	Rows int64
}

// Write runs one checkpoint at snapshot ts, writing shard files round-robin
// across the devices and the manifest (last, synced) to devices[0]. It
// returns the manifest.
func Write(db *engine.Database, devices []*simdisk.Device, cfg Config, id uint32, ts engine.TS) (*Manifest, error) {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.ShardsPerTable < 1 {
		cfg.ShardsPerTable = cfg.Threads
	}
	man := &Manifest{ID: id, TS: ts, IncludeSlots: cfg.IncludeSlots, Tables: map[int]int{}}

	type job struct {
		table  *engine.Table
		shard  int
		lo, hi uint64
		dev    *simdisk.Device
	}
	var jobs []job
	di := 0
	for _, t := range db.Tables() {
		n := t.NumSlots()
		shards := cfg.ShardsPerTable
		man.Tables[t.ID()] = shards
		per := (n + uint64(shards) - 1) / uint64(shards)
		if per == 0 {
			per = 1
		}
		for s := 0; s < shards; s++ {
			lo := uint64(s) * per
			hi := lo + per
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			jobs = append(jobs, job{table: t, shard: s, lo: lo, hi: hi, dev: devices[di%len(devices)]})
			di++
		}
	}

	var mu sync.Mutex
	var firstErr error
	var rows int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Threads)
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			n, err := writeShard(j.table, j.dev, cfg, id, j.shard, j.lo, j.hi, ts)
			mu.Lock()
			rows += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	man.Rows = rows

	// Manifest last: its presence marks the checkpoint complete. Replace
	// publishes it whole or not at all, so a crash mid-write leaves the
	// previous checkpoint authoritative.
	if err := devices[0].Replace(ManifestName(id), encodeManifest(man)); err != nil {
		return nil, err
	}
	return man, nil
}

// writeShard writes one shard file: a sequence of frames, one per flush of
// its 48 KiB row buffer, each holding whole rows.
func writeShard(t *engine.Table, dev *simdisk.Device, cfg Config, id uint32, shard int, lo, hi uint64, ts engine.TS) (int64, error) {
	w := dev.Create(shardName(id, t.ID(), shard))
	var rows int64
	buf, base := frame.Reserve(make([]byte, 0, 64<<10))
	t.ScanSlots(lo, hi, func(r *engine.Row) {
		data := r.ReadAt(ts)
		if data == nil {
			return // never visible or deleted at the snapshot
		}
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		if cfg.IncludeSlots {
			buf = binary.LittleEndian.AppendUint64(buf, r.Slot)
		}
		buf = tuple.AppendTuple(buf, data)
		rows++
		if len(buf) >= 48<<10 {
			frame.Seal(buf, base)
			w.Write(buf)
			buf, base = frame.Reserve(buf[:0])
		}
	})
	if len(buf) > frame.HeaderSize {
		frame.Seal(buf, base)
		w.Write(buf)
	}
	return rows, w.Sync()
}

// encodeManifest frames the manifest as one frame.
func encodeManifest(m *Manifest) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, m.ID)
	b = binary.LittleEndian.AppendUint64(b, m.TS)
	if m.IncludeSlots {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Rows))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Tables)))
	// Tables in ID order for determinism.
	maxID := -1
	for id := range m.Tables {
		if id > maxID {
			maxID = id
		}
	}
	for id := 0; id <= maxID; id++ {
		if shards, ok := m.Tables[id]; ok {
			b = binary.LittleEndian.AppendUint16(b, uint16(id))
			b = binary.LittleEndian.AppendUint16(b, uint16(shards))
		}
	}
	return frame.Append(nil, b)
}

// decodeManifest parses a manifest file: exactly one valid frame. A
// manifest torn by a power failure mid-write — even one whose partially
// persisted sector decodes structurally — fails and the previous
// checkpoint stays authoritative.
func decodeManifest(data []byte) (*Manifest, error) {
	b, n := frame.Next(data)
	if n == 0 || n != len(data) {
		return nil, fmt.Errorf("checkpoint: manifest torn or corrupt")
	}
	if len(b) < 4+8+1+8+2 {
		return nil, fmt.Errorf("checkpoint: manifest truncated")
	}
	m := &Manifest{
		ID:           binary.LittleEndian.Uint32(b),
		TS:           binary.LittleEndian.Uint64(b[4:]),
		IncludeSlots: b[12] == 1,
		Rows:         int64(binary.LittleEndian.Uint64(b[13:])),
		Tables:       map[int]int{},
	}
	n = int(binary.LittleEndian.Uint16(b[21:]))
	off := 23
	for i := 0; i < n; i++ {
		if len(b[off:]) < 4 {
			return nil, fmt.Errorf("checkpoint: manifest tables truncated")
		}
		id := int(binary.LittleEndian.Uint16(b[off:]))
		m.Tables[id] = int(binary.LittleEndian.Uint16(b[off+2:]))
		off += 4
	}
	return m, nil
}

// FindLatest locates the newest complete checkpoint across the devices, or
// returns nil if none exists. Only a manifest that fails to DECODE is
// treated as incomplete (crashed mid-manifest); an I/O error reading one
// propagates — swallowing a transient read fault here would silently skip
// a durable checkpoint and fork the recovery timeline (the checkpoint's
// snapshot can cover epochs beyond the logged pepoch, so recovering
// without it yields a different state than the next recovery, which may
// see the checkpoint again).
func FindLatest(devices []*simdisk.Device) (*Manifest, error) {
	var best *Manifest
	for _, d := range devices {
		for _, name := range d.List("ckpt-") {
			if len(name) < 8 || name[len(name)-8:] != "manifest" {
				continue
			}
			r, err := d.Open(name)
			if err != nil {
				return nil, err
			}
			data, err := r.ReadAll()
			if err != nil {
				return nil, err
			}
			m, err := decodeManifest(data)
			if err != nil {
				continue // incomplete (crashed mid-manifest)
			}
			if best == nil || m.ID > best.ID {
				best = m
			}
		}
	}
	return best, nil
}

// RestoreStats reports restore volume.
type RestoreStats struct {
	Rows  int64
	Bytes int64
	// ReloadTime is the portion spent reading and decoding files;
	// the remainder of the restore wall time is row installation and
	// (inline) index building. Figure 13a plots this split.
	ReloadTime time.Duration
}

// Restore rebuilds the table space from checkpoint m with up to `threads`
// parallel workers. With deferIndex (the physical-logging mode) rows are
// placed at their recorded slots and the primary indexes are NOT rebuilt —
// the caller rebuilds them after log replay. Otherwise rows get fresh slots
// and the indexes are built inline.
func Restore(db *engine.Database, devices []*simdisk.Device, m *Manifest, threads int, deferIndex bool) (RestoreStats, error) {
	if threads < 1 {
		threads = 1
	}
	if deferIndex && !m.IncludeSlots {
		return RestoreStats{}, fmt.Errorf("checkpoint: deferred-index restore requires slot-recording checkpoint")
	}
	type job struct {
		tableID, shard int
	}
	var jobs []job
	for id, shards := range m.Tables {
		for s := 0; s < shards; s++ {
			jobs = append(jobs, job{tableID: id, shard: s})
		}
	}
	var mu sync.Mutex
	var stats RestoreStats
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, threads)
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows, bytes, rt, err := restoreShard(db, devices, m, j.tableID, j.shard, deferIndex)
			mu.Lock()
			stats.Rows += rows
			stats.Bytes += bytes
			stats.ReloadTime += rt
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	return stats, firstErr
}

func restoreShard(db *engine.Database, devices []*simdisk.Device, m *Manifest, tableID, shard int, deferIndex bool) (int64, int64, time.Duration, error) {
	name := shardName(m.ID, tableID, shard)
	var data []byte
	loadStart := time.Now()
	for _, d := range devices {
		r, err := d.Open(name)
		if err != nil {
			continue
		}
		data, err = r.ReadAll()
		if err != nil {
			return 0, 0, 0, err
		}
		break
	}
	if data == nil {
		return 0, 0, 0, fmt.Errorf("checkpoint: shard %s not found", name)
	}
	reload := time.Since(loadStart)
	t := db.TableByID(tableID)
	if t == nil {
		return 0, 0, 0, fmt.Errorf("checkpoint: unknown table %d", tableID)
	}
	var rows int64
	valid, err := frame.Walk(data, func(rest []byte) error {
		for len(rest) > 0 {
			if len(rest) < 8 {
				return fmt.Errorf("checkpoint: shard %s truncated", name)
			}
			key := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			var slot uint64
			if m.IncludeSlots {
				if len(rest) < 8 {
					return fmt.Errorf("checkpoint: shard %s truncated", name)
				}
				slot = binary.LittleEndian.Uint64(rest)
				rest = rest[8:]
			}
			tup, n, err := tuple.DecodeTuple(rest)
			if err != nil {
				return fmt.Errorf("checkpoint: shard %s: %w", name, err)
			}
			rest = rest[n:]
			var row *engine.Row
			if deferIndex {
				row = t.PlaceRowAt(slot, key)
			} else if m.IncludeSlots {
				row = t.PlaceRowAt(slot, key)
				t.InsertIndex(key, row)
			} else {
				row, _ = t.GetOrCreateRow(key)
			}
			row.Install(m.TS, tup, false, true)
			rows++
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if valid != len(data) {
		return 0, 0, 0, fmt.Errorf("checkpoint: shard %s torn or corrupt at byte %d", name, valid)
	}
	return rows, int64(len(data)), reload, nil
}

// TruncateLogs removes log batch files wholly covered by a checkpoint:
// batches whose last epoch is at or below coveredEpoch.
func TruncateLogs(devices []*simdisk.Device, coveredEpoch uint32, batchEpochs uint32) int {
	removed := 0
	for _, d := range devices {
		for _, name := range d.List("log-") {
			var logger, batch uint32
			if _, err := fmt.Sscanf(name, "log-%d-%d", &logger, &batch); err != nil {
				continue
			}
			lastEpoch := (batch+1)*batchEpochs - 1
			if lastEpoch <= coveredEpoch {
				if d.Remove(name) == nil {
					removed++
				}
			}
		}
	}
	return removed
}
