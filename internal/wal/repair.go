package wal

import (
	"errors"
	"fmt"
	"sync"

	"pacman/internal/simdisk"
)

// RepairStats reports what a tail-repair pass found.
type RepairStats struct {
	// FilesRewritten counts batch files rewritten without their invalid
	// suffix or ghost records.
	FilesRewritten int
	// FilesRemoved counts batch files dropped whole because nothing in them
	// was replayable — the header itself was torn (a batch file created but
	// never synced before the crash).
	FilesRemoved int
	// StaleSidecars counts leftover Device.Replace sidecars of a rewrite
	// that crashed before publishing; they are discarded (the original file
	// is still intact — publication is atomic).
	StaleSidecars int
	// GhostRecords counts records dropped because their epoch exceeded the
	// recovered persistent epoch: durably written by one logger while
	// another lagged, so never covered by pepoch and never replayed.
	GhostRecords int
	// TornBytes counts trailing bytes dropped as torn or corrupt frames.
	TornBytes int64
}

// Zero reports whether the pass found nothing to do — a second RepairTail
// at the same pepoch must always be Zero (repair converges).
func (s RepairStats) Zero() bool {
	return s == RepairStats{}
}

// repairPepochMarker cuts the pepoch marker back to its last valid record.
// A crash that tore the marker mid-append (a partially persisted sector)
// leaves a torn frame at the end; ReadPepoch correctly ignores it, but a
// restarted incarnation APPENDS after it — and every record behind a torn
// frame is invisible to the walk, silently freezing the durable pepoch
// while the new instance keeps acknowledging commits. The rewrite goes
// through Device.Replace, like batch-file repair.
func repairPepochMarker(dev *simdisk.Device) (tornBytes int64, err error) {
	r, err := dev.Open(PepochFileName)
	if err != nil {
		if errors.Is(err, simdisk.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	data, err := r.ReadAll()
	if err != nil {
		return 0, err
	}
	valid, pe := scanPepochRecords(data)
	if valid == len(data) {
		return 0, nil
	}
	// Rewriting to the single last record both drops the torn fragment and
	// compacts a marker that grew over a long previous incarnation.
	if err := dev.Replace(PepochFileName, appendPepochRecord(nil, pe)); err != nil {
		return 0, err
	}
	return int64(len(data) - valid), nil
}

// TailRepair is the tail-repair decision a reload pass reached from the
// bytes it already read: which batch files to rewrite (ghost frames beyond
// pepoch or a torn tail) and which to remove (a torn header). Only those
// files are recorded, so it holds no bytes of clean files. ReloadStats.Tail
// carries it out of ReloadBatch, ReloadAll and the Reloader.
type TailRepair struct {
	walked int          // batch files the pass walked
	files  []fileRepair // the walked files that need work
}

// fileRepair is one batch file's verdict: remove it whole, or rewrite it to
// keep.
type fileRepair struct {
	file      BatchFile
	remove    bool
	keep      []byte
	ghosts    int
	tornBytes int64
}

// add records one walked file, keeping its verdict only if it needs work.
func (t *TailRepair) add(f BatchFile, w *fileWalk) {
	t.walked++
	if !w.headerTorn && w.dropped == 0 && w.tornBytes == 0 {
		return
	}
	t.files = append(t.files, fileRepair{file: f, remove: w.headerTorn, keep: w.keep, ghosts: w.dropped, tornBytes: w.tornBytes})
}

func (t *TailRepair) merge(o TailRepair) {
	t.walked += o.walked
	t.files = append(t.files, o.files...)
}

// Apply repairs the devices the pass walked without reading a batch file:
// per device it discards stale Replace sidecars, cuts the pepoch marker back,
// then rewrites or removes each file the pass found in need. It refuses a
// pass that did not walk every batch file on the devices, since an
// unwalked file may hold ghosts.
//
// Each rewrite goes through Device.Replace, so a power failure at any point
// leaves either the untouched original (plus a stale sidecar the next pass
// discards) or the fully repaired file; a rerun — RepairTail, or a fresh
// reload and Apply — converges.
func (t TailRepair) Apply(devices []*simdisk.Device) (RepairStats, error) {
	var st RepairStats
	logs := 0
	for _, dev := range devices {
		logs += len(dev.List("log-"))
	}
	if logs != t.walked {
		return st, fmt.Errorf("wal: tail repair walked %d of the devices' %d batch files", t.walked, logs)
	}
	for _, dev := range devices {
		// Discard sidecars a crashed Replace left behind; their originals
		// are intact, and a torn sidecar is unusable anyway.
		for _, name := range dev.List(simdisk.SidecarPrefix) {
			if err := dev.Remove(name); err != nil {
				return st, err
			}
			st.StaleSidecars++
		}
		// The pepoch marker must end at a whole record before the restarted
		// instance appends to it; a torn frame would hide every record
		// appended after it from ReadPepoch's walk.
		tornPe, err := repairPepochMarker(dev)
		if err != nil {
			return st, err
		}
		if tornPe > 0 {
			st.FilesRewritten++
			st.TornBytes += tornPe
		}
		for _, f := range t.files {
			if f.file.Device != dev {
				continue
			}
			if err := f.apply(&st); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

func (f fileRepair) apply(st *RepairStats) error {
	dev, name := f.file.Device, f.file.Name
	if f.remove {
		if err := dev.Remove(name); err != nil {
			return err
		}
		st.FilesRemoved++
		st.TornBytes += f.tornBytes
		return nil
	}
	if err := dev.Replace(name, f.keep); err != nil {
		return err
	}
	st.FilesRewritten++
	st.GhostRecords += f.ghosts
	st.TornBytes += f.tornBytes
	return nil
}

// RepairTail rewrites every log batch file so it contains exactly the
// records recovery replayed: frames whose epoch is at or below pepoch, with
// torn or corrupt trailing bytes removed. Files whose header never became
// durable (created but unsynced at the crash) hold nothing replayable and
// are removed whole.
//
// A restarted instance must repair before logging again. Records beyond
// pepoch are ghosts — recovery (correctly) filtered them against the crashed
// pepoch, but once the restarted instance advances the persistent epoch past
// their epochs, the next recovery's pepoch filter would wrongly admit them;
// and new batches must never be appended after a torn tail the decoder would
// stop at. Kept frames are copied byte-exact (no re-encode), so a repaired
// file replays identically.
//
// Restart does not call RepairTail: it applies the TailRepair its reload
// pass already decided. RepairTail is the standalone form of the same
// decision — it walks every file with the reload's frame walk (devices read
// concurrently, payloads never decoded) and then Applies the verdicts — and
// is the reference that fused repair is tested against. Repair is
// crash-safe and convergent (see TailRepair.Apply): running RepairTail
// again after a completed pass finds nothing to do.
func RepairTail(devices []*simdisk.Device, pepoch uint32) (RepairStats, error) {
	tails := make([]TailRepair, len(devices))
	errs := make([]error, len(devices))
	var wg sync.WaitGroup
	for i, dev := range devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tails[i], errs[i] = walkDevice(dev, pepoch)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return RepairStats{}, err
	}
	var t TailRepair
	for _, dt := range tails {
		t.merge(dt)
	}
	return t.Apply(devices)
}

// walkDevice reads one device's batch files in order and walks each
// without decoding; only the files that need work keep their bytes.
func walkDevice(dev *simdisk.Device, pepoch uint32) (TailRepair, error) {
	var t TailRepair
	for _, name := range dev.List("log-") {
		f := BatchFile{Device: dev, Name: name}
		data, err := readFileBytes(f)
		if err != nil {
			return t, err
		}
		w, err := walkFile(data, pepoch, 0, false)
		if err != nil {
			return t, err
		}
		t.add(f, &w)
	}
	return t, nil
}
