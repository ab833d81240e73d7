package wal

import (
	"bytes"
	"errors"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/simdisk"
)

// crashImage is one crash image for the fused-repair tests: build writes it
// onto fresh devices, and pepoch is the durable cut recovery reloads at.
type crashImage struct {
	name   string
	pepoch uint32
	build  func(t *testing.T) []*simdisk.Device
}

// crashImages covers every repairShape plus the multi-device and
// multi-file shapes: skewed durable watermarks, a torn pepoch marker, a
// stale repair sidecar, and a log of several batches per logger.
func crashImages(t *testing.T) []crashImage {
	var out []crashImage
	for _, sh := range repairShapes(t) {
		out = append(out, crashImage{sh.name, sh.pepoch, func(t *testing.T) []*simdisk.Device {
			dev := simdisk.New("d", simdisk.Unlimited())
			writeFile(t, dev, BatchFileName(0, 0), sh.data)
			return []*simdisk.Device{dev}
		}})
	}
	recs := commitRecords(t, 1, 2, 5)
	full, valid2 := frames(recs, 0, 0), frames(recs[:2], 0, 0)
	return append(out,
		crashImage{"skewed watermarks", 2, func(t *testing.T) []*simdisk.Device {
			lag := simdisk.New("lag", simdisk.Unlimited())
			lead := simdisk.New("lead", simdisk.Unlimited())
			writeFile(t, lag, BatchFileName(0, 0), frames(recs[:2], 0, 0))
			writeFile(t, lead, BatchFileName(1, 0), frames(recs, 1, 0))
			return []*simdisk.Device{lag, lead}
		}},
		crashImage{"torn pepoch marker", 2, func(t *testing.T) []*simdisk.Device {
			dev := simdisk.New("d", simdisk.Unlimited())
			writeFile(t, dev, PepochFileName, append(appendPepochRecord(nil, 2), 4, 0, 0)) // torn frame of the next record
			writeFile(t, dev, BatchFileName(0, 0), full)
			return []*simdisk.Device{dev}
		}},
		crashImage{"stale sidecar", 2, func(t *testing.T) []*simdisk.Device {
			dev := simdisk.New("d", simdisk.Unlimited())
			writeFile(t, dev, BatchFileName(0, 0), valid2)
			writeFile(t, dev, simdisk.SidecarPrefix+BatchFileName(0, 0), valid2[:fileHeaderSize+5])
			return []*simdisk.Device{dev}
		}},
		crashImage{"several batches per logger", 2, func(t *testing.T) []*simdisk.Device {
			devs := []*simdisk.Device{simdisk.New("a", simdisk.Unlimited()), simdisk.New("b", simdisk.Unlimited())}
			for i, dev := range devs {
				writeFile(t, dev, BatchFileName(i, 0), frames(recs[:1], i, 0))
				writeFile(t, dev, BatchFileName(i, 1), frames(recs[1:2], i, 1))
				writeFile(t, dev, BatchFileName(i, 2), append(frames(recs[1:], i, 2), 0xEE))
				writeFile(t, dev, BatchFileName(i, 3), nil)
			}
			return devs
		}},
	)
}

// deviceFiles snapshots every file on the devices, keyed by device and name.
func deviceFiles(t *testing.T, devs []*simdisk.Device) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, dev := range devs {
		for _, name := range dev.List("") {
			r, err := dev.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			out[dev.Name()+"/"+name] = data
		}
	}
	return out
}

// fusedCkptTS is the checkpoint cut the fused passes reload at: it covers
// every epoch-1 frame, which replay then skips but repair must keep.
var fusedCkptTS = engine.MakeTS(1, ^uint32(0))

// pipelinedTail reloads the devices through a Reloader and returns its
// tail-repair verdicts.
func pipelinedTail(t *testing.T, devs []*simdisk.Device, pepoch uint32) TailRepair {
	t.Helper()
	r, err := NewReloader(devs, ReloadOptions{Pepoch: pepoch, CkptTS: fusedCkptTS, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	drain(t, r)
	return r.Stats().Tail
}

// batchTail reloads the devices batch by batch through ReloadBatch and
// returns the accumulated tail-repair verdicts.
func batchTail(t *testing.T, devs []*simdisk.Device, pepoch uint32) TailRepair {
	t.Helper()
	batches, err := Discover(devs)
	if err != nil {
		t.Fatal(err)
	}
	var total ReloadStats
	for _, bf := range batches {
		_, st, err := ReloadBatch(bf, pepoch, fusedCkptTS, 2)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(st)
	}
	return total.Tail
}

// TestFusedRepairMatchesRepairTail: on every crash image, applying the
// verdicts a reload pass reached — through the pipelined Reloader and
// through ReloadBatch, both with a checkpoint filter — leaves every device
// file byte-identical to the standalone RepairTail, with equal stats, and a
// following RepairTail finds nothing to do.
func TestFusedRepairMatchesRepairTail(t *testing.T) {
	paths := []struct {
		name string
		tail func(*testing.T, []*simdisk.Device, uint32) TailRepair
	}{{"pipelined", pipelinedTail}, {"batch", batchTail}}
	for _, img := range crashImages(t) {
		t.Run(img.name, func(t *testing.T) {
			ref := img.build(t)
			want, err := RepairTail(ref, img.pepoch)
			if err != nil {
				t.Fatal(err)
			}
			wantFiles := deviceFiles(t, ref)
			for _, p := range paths {
				devs := img.build(t)
				got, err := p.tail(t, devs, img.pepoch).Apply(devs)
				if err != nil {
					t.Fatalf("%s: apply: %v", p.name, err)
				}
				if got != want {
					t.Errorf("%s: stats = %+v, RepairTail = %+v", p.name, got, want)
				}
				gotFiles := deviceFiles(t, devs)
				if len(gotFiles) != len(wantFiles) {
					t.Errorf("%s: %d files after repair, RepairTail leaves %d", p.name, len(gotFiles), len(wantFiles))
				}
				for name, w := range wantFiles {
					if g, ok := gotFiles[name]; !ok || !bytes.Equal(g, w) {
						t.Errorf("%s: %s differs from RepairTail's (%d bytes, want %d)", p.name, name, len(g), len(w))
					}
				}
				if st, err := RepairTail(devs, img.pepoch); err != nil || !st.Zero() {
					t.Errorf("%s: RepairTail after apply = %+v, %v; want a no-op", p.name, st, err)
				}
			}
		})
	}
}

// TestFusedRepairRefusesPartialPass: verdicts that do not cover every batch
// file on the devices (a pass that stopped early, or empty verdicts) must
// not be applied — an unwalked file may hold ghosts.
func TestFusedRepairRefusesPartialPass(t *testing.T) {
	recs := commitRecords(t, 1, 2, 5)
	dev := simdisk.New("d", simdisk.Unlimited())
	writeFile(t, dev, BatchFileName(0, 0), frames(recs, 0, 0))
	if _, err := (TailRepair{}).Apply([]*simdisk.Device{dev}); err == nil {
		t.Fatal("empty verdicts applied to a device holding a batch file")
	}
	if names := dev.List("log-"); len(names) != 1 {
		t.Fatalf("files after refused apply: %v", names)
	}
}

// TestFusedRepairCrashDuringApply: a power failure in the middle of
// applying reload verdicts (tripped by the sidecar write) leaves the
// original batch file intact, and a rerun — a fresh reload and apply —
// converges on what an uninterrupted RepairTail produces.
func TestFusedRepairCrashDuringApply(t *testing.T) {
	recs := commitRecords(t, 1, 2, 5)
	dirty := append(append([]byte(nil), frames(recs, 0, 0)...), 0xBA, 0xD0)
	ref := simdisk.New("d", simdisk.Unlimited())
	writeFile(t, ref, BatchFileName(0, 0), dirty)
	if _, err := RepairTail([]*simdisk.Device{ref}, 2); err != nil {
		t.Fatal(err)
	}
	want := deviceFiles(t, []*simdisk.Device{ref})

	for _, tornTail := range []int64{0, 1} {
		dev := simdisk.New("d", simdisk.Unlimited())
		devs := []*simdisk.Device{dev}
		writeFile(t, dev, BatchFileName(0, 0), dirty)

		tail := pipelinedTail(t, devs, 2)
		plan := &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{
			"d": {CrashAfterWrites: 1, TornTailBytes: tornTail},
		}}
		plan.Arm(dev)
		if _, err := tail.Apply(devs); !errors.Is(err, simdisk.ErrPowerFailed) {
			t.Fatalf("apply on a power-failing device: err = %v, want ErrPowerFailed", err)
		}
		dev.Crash()
		plan.Disarm()

		entries, _, err := ReloadAll(devs, 2, 1)
		if err != nil || len(entries) != 2 {
			t.Fatalf("reload after crashed apply = %d entries, %v; want 2", len(entries), err)
		}
		st, err := pipelinedTail(t, devs, 2).Apply(devs)
		if err != nil {
			t.Fatal(err)
		}
		if st.FilesRewritten != 1 || st.GhostRecords != 1 {
			t.Fatalf("rerun stats = %+v", st)
		}
		if tornTail > 0 && st.StaleSidecars != 1 {
			t.Fatalf("rerun stats = %+v, want the torn sidecar discarded", st)
		}
		if st2, _ := RepairTail(devs, 2); !st2.Zero() {
			t.Fatalf("RepairTail after the rerun not a no-op: %+v", st2)
		}
		got := deviceFiles(t, devs)
		for name, w := range want {
			if !bytes.Equal(got[name], w) {
				t.Fatalf("torn tail %d: %s differs from an uninterrupted repair", tornTail, name)
			}
		}
	}
}
