package wal

import (
	"errors"
	"testing"

	"pacman/internal/simdisk"
	"pacman/internal/txn"
)

// commitRecords produces n committed bank records at the given epochs
// (non-decreasing), for hand-crafting batch files.
func commitRecords(t *testing.T, epochs ...uint32) []*txn.Committed {
	t.Helper()
	b, m := bankSetup(t)
	w := m.NewWorker()
	cur := uint32(1)
	for i, e := range epochs {
		for cur < e {
			m.AdvanceEpoch()
			cur++
		}
		mustExec(t, w, b, int64(1+i%10))
	}
	recs := w.Drain(^uint32(0))
	if len(recs) != len(epochs) {
		t.Fatalf("drained %d records, want %d", len(recs), len(epochs))
	}
	for i, c := range recs {
		if c.Epoch != epochs[i] {
			t.Fatalf("record %d at epoch %d, want %d", i, c.Epoch, epochs[i])
		}
	}
	return recs
}

// frames encodes the records as one batch file image (header + frames).
func frames(recs []*txn.Committed, loggerID int, batch uint32) []byte {
	buf := appendFileHeader(nil, Command, loggerID, batch)
	for _, c := range recs {
		buf = encodeRecord(buf, Command, c)
	}
	return buf
}

func writeFile(t *testing.T, dev *simdisk.Device, name string, data []byte) {
	t.Helper()
	w := dev.Create(name)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

// repairShape is one single-file crash shape of a batch file.
type repairShape struct {
	name string
	data []byte
	// pepoch is the durable cut repair runs at.
	pepoch uint32
	// wantEntries after repair when reloading with a wide-open pepoch:
	// ghosts and torn bytes must be physically gone.
	wantEntries int
	wantRemoved bool
}

// repairShapes lists the file shapes the fault plane produces at a power
// failure: torn partial-sector tails (mid-frame cuts, corrupted CRCs),
// files whose header never became durable, and ghost frames beyond the
// durable cut.
func repairShapes(t *testing.T) []repairShape {
	recs := commitRecords(t, 1, 2, 5)
	full := frames(recs, 0, 0)
	valid2 := frames(recs[:2], 0, 0) // epochs 1,2 only
	return []repairShape{
		{"clean file untouched", append([]byte(nil), valid2...), 2, 2, false},
		{"torn mid-frame cut", append(append([]byte(nil), full...), full[fileHeaderSize:fileHeaderSize+11]...), 5, 3, false},
		{"torn partial-sector garbage", append(append([]byte(nil), valid2...), 0xDE, 0xAD, 0xBE), 2, 2, false},
		{"corrupt crc tail", func() []byte {
			d := append([]byte(nil), full...)
			d[len(d)-1] ^= 0xFF // last frame's payload no longer matches its CRC
			return d
		}(), 5, 2, false},
		{"ghost frames beyond pepoch", append([]byte(nil), full...), 2, 2, false},
		{"ghost between kept frames", frames([]*txn.Committed{recs[0], recs[2], recs[1]}, 0, 0), 2, 2, false},
		{"empty file (created, never synced)", nil, 5, 0, true},
		{"torn header", full[:fileHeaderSize-3], 5, 0, true},
		{"garbage header", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 5, 0, true},
	}
}

// TestRepairTailAdversarialShapes exercises every repairShape table-driven.
// Every case must repair to a file that reloads cleanly, and a second pass
// must find nothing.
func TestRepairTailAdversarialShapes(t *testing.T) {
	for _, tc := range repairShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			dev := simdisk.New("d", simdisk.Unlimited())
			name := BatchFileName(0, 0)
			writeFile(t, dev, name, tc.data)

			// The shape must already reload without a hard error (recovery
			// runs before repair), then repair must normalize it.
			if _, _, err := ReloadAll([]*simdisk.Device{dev}, tc.pepoch, 1); err != nil {
				t.Fatalf("pre-repair reload: %v", err)
			}
			st, err := RepairTail([]*simdisk.Device{dev}, tc.pepoch)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantRemoved {
				if st.FilesRemoved != 1 {
					t.Fatalf("stats = %+v, want the headerless file removed", st)
				}
				if names := dev.List("log-"); len(names) != 0 {
					t.Fatalf("headerless file still present: %v", names)
				}
			} else {
				entries, rs, err := ReloadAll([]*simdisk.Device{dev}, ^uint32(0), 1)
				if err != nil {
					t.Fatal(err)
				}
				if rs.TornFiles != 0 {
					t.Error("repaired file still torn")
				}
				if len(entries) != tc.wantEntries {
					t.Fatalf("repaired file holds %d entries, want %d", len(entries), tc.wantEntries)
				}
				for _, e := range entries {
					if e.Epoch() > tc.pepoch {
						t.Errorf("ghost entry at epoch %d survived repair at pepoch %d", e.Epoch(), tc.pepoch)
					}
				}
			}
			// Convergence: the second pass finds nothing to do.
			st2, err := RepairTail([]*simdisk.Device{dev}, tc.pepoch)
			if err != nil {
				t.Fatal(err)
			}
			if !st2.Zero() {
				t.Fatalf("second repair pass not a no-op: %+v", st2)
			}
		})
	}
}

// TestRepairTailSkewedWatermarks: two devices crashed at different durable
// watermarks — the lagging device defines pepoch, and the leading device's
// durably synced frames beyond it are ghosts that repair must drop on that
// device while leaving the lagging device untouched.
func TestRepairTailSkewedWatermarks(t *testing.T) {
	recs := commitRecords(t, 1, 2, 5)
	lag := simdisk.New("lag", simdisk.Unlimited())
	lead := simdisk.New("lead", simdisk.Unlimited())
	writeFile(t, lag, BatchFileName(0, 0), frames(recs[:2], 0, 0)) // synced through epoch 2
	writeFile(t, lead, BatchFileName(1, 0), frames(recs, 1, 0))    // synced through epoch 5

	const pepoch = 2 // min(loggers): the lagging device's watermark
	devs := []*simdisk.Device{lag, lead}
	st, err := RepairTail(devs, pepoch)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesRewritten != 1 || st.GhostRecords != 1 {
		t.Fatalf("stats = %+v, want exactly the leading device's ghost dropped", st)
	}
	entries, _, err := ReloadAll(devs, ^uint32(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // epochs 1,2 on each device
		t.Fatalf("post-repair entries = %d, want 4", len(entries))
	}
	if st2, _ := RepairTail(devs, pepoch); !st2.Zero() {
		t.Fatalf("second pass not a no-op: %+v", st2)
	}
}

// TestRepairTailCrashDuringRepair: a power failure in the middle of a
// repair pass (tripped by the sidecar write) must leave the original batch
// file untouched — publication is atomic — and a rerun of the repair after
// the crash must converge to the same result as an uninterrupted repair.
func TestRepairTailCrashDuringRepair(t *testing.T) {
	recs := commitRecords(t, 1, 2, 5)
	dirty := append(append([]byte(nil), frames(recs, 0, 0)...), 0xBA, 0xD0)

	for _, tornTail := range []int64{0, 1} {
		dev := simdisk.New("d", simdisk.Unlimited())
		writeFile(t, dev, BatchFileName(0, 0), dirty)

		plan := &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{
			"d": {CrashAfterWrites: 1, TornTailBytes: tornTail},
		}}
		plan.Arm(dev)
		_, err := RepairTail([]*simdisk.Device{dev}, 2)
		if err == nil {
			t.Fatal("repair on a power-failing device should fail")
		}
		if !errors.Is(err, simdisk.ErrPowerFailed) {
			t.Fatalf("err = %v, want ErrPowerFailed", err)
		}
		dev.Crash()
		plan.Disarm()

		// The original is intact (possibly with a stale torn sidecar).
		entries, _, err := ReloadAll([]*simdisk.Device{dev}, 2, 1)
		if err != nil {
			t.Fatalf("reload after crashed repair: %v", err)
		}
		if len(entries) != 2 {
			t.Fatalf("entries after crashed repair = %d, want 2", len(entries))
		}

		// The rerun discards the stale sidecar and completes the repair.
		st, err := RepairTail([]*simdisk.Device{dev}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.FilesRewritten != 1 || st.GhostRecords != 1 {
			t.Fatalf("rerun stats = %+v", st)
		}
		if tornTail > 0 && st.StaleSidecars != 1 {
			t.Fatalf("rerun stats = %+v, want the torn sidecar discarded", st)
		}
		if st2, _ := RepairTail([]*simdisk.Device{dev}, 2); !st2.Zero() {
			t.Fatalf("third pass not a no-op: %+v", st2)
		}
		got, _, err := ReloadAll([]*simdisk.Device{dev}, ^uint32(0), 1)
		if err != nil || len(got) != 2 {
			t.Fatalf("final reload = %d entries, %v", len(got), err)
		}
	}
}

// TestReadPepochAppendOnly: the marker is an append-only record sequence —
// the last valid record wins, and a torn or corrupt tail (crash mid-append)
// falls back to the previous durable record instead of failing recovery.
func TestReadPepochAppendOnly(t *testing.T) {
	dev := simdisk.New("d", simdisk.Unlimited())

	appendRec := func(pe uint32) {
		w := dev.Append(PepochFileName)
		w.Write(appendPepochRecord(nil, pe))
		w.Sync()
	}

	// Empty file (created, never written): pepoch 0.
	dev.Create(PepochFileName).Sync()
	if pe, err := ReadPepoch(dev); err != nil || pe != 0 {
		t.Fatalf("empty marker: pe=%d err=%v", pe, err)
	}
	appendRec(3)
	appendRec(7)
	if pe, err := ReadPepoch(dev); err != nil || pe != 7 {
		t.Fatalf("marker: pe=%d err=%v, want 7", pe, err)
	}
	// Torn half-record tail: previous record survives.
	w := dev.Append(PepochFileName)
	w.Write(appendPepochRecord(nil, 9)[:6])
	w.Sync()
	if pe, err := ReadPepoch(dev); err != nil || pe != 7 {
		t.Fatalf("torn tail: pe=%d err=%v, want 7", pe, err)
	}
	// Corrupt full record tail: same fallback.
	dev2 := simdisk.New("d2", simdisk.Unlimited())
	bad := appendPepochRecord(nil, 6)
	bad[len(bad)-1] ^= 0x01 // the checksum no longer matches
	writeFile(t, dev2, PepochFileName, append(appendPepochRecord(nil, 5), bad...))
	if pe, err := ReadPepoch(dev2); err != nil || pe != 5 {
		t.Fatalf("corrupt tail: pe=%d err=%v, want 5", pe, err)
	}
}

// TestRepairPepochMarkerMisalignment is the regression test for a bug the
// torture subsystem found: a crash that tears the pepoch marker mid-append
// leaves a torn frame, and an incarnation that APPENDS after it writes
// records the ReadPepoch walk can never see — the durable pepoch silently
// freezes while acks keep flowing. RepairTail must cut the marker back to
// its last whole record so resumed appends are seen.
func TestRepairPepochMarkerMisalignment(t *testing.T) {
	dev := simdisk.New("d", simdisk.Unlimited())
	w := dev.Create(PepochFileName)
	w.Write(appendPepochRecord(nil, 7))     // valid record pe=7
	w.Write(appendPepochRecord(nil, 9)[:3]) // torn frame (crash mid-append)
	w.Sync()

	st, err := RepairTail([]*simdisk.Device{dev}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesRewritten != 1 || st.TornBytes != 3 {
		t.Fatalf("stats = %+v, want the 3-byte fragment dropped", st)
	}
	if st2, _ := RepairTail([]*simdisk.Device{dev}, 7); !st2.Zero() {
		t.Fatalf("second pass not a no-op: %+v", st2)
	}

	// The resumed incarnation appends whole records, and the walk sees
	// them again.
	w2 := dev.Append(PepochFileName)
	w2.Write(appendPepochRecord(nil, 12))
	w2.Sync()
	if pe, err := ReadPepoch(dev); err != nil || pe != 12 {
		t.Fatalf("pepoch after repaired resume = %d, %v; want 12", pe, err)
	}
}
