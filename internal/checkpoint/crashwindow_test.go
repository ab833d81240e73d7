package checkpoint

import (
	"strings"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/frame"
	"pacman/internal/proc"
	"pacman/internal/simdisk"
	"pacman/internal/tuple"
	"pacman/internal/txn"
	"pacman/internal/workload"
)

// execDeposit commits one unit deposit so successive checkpoints differ.
func execDeposit(t *testing.T, b *workload.Bank, m *txn.Manager, acct int64) {
	t.Helper()
	w := m.NewWorker()
	if _, err := w.Execute(b.Deposit,
		proc.Args{proc.A(tuple.I(acct)), proc.A(tuple.I(1)), proc.A(tuple.I(1))}, false); err != nil {
		t.Fatal(err)
	}
	w.Retire()
}

// TestCrashBetweenShardsAndManifest: a checkpoint that crashes after its
// shard writes but before the manifest publish must leave the previous
// checkpoint authoritative — FindLatest ignores the orphaned shards, and
// restoring the previous checkpoint still works. The exact window is
// reproduced deterministically: checkpoint 2's shards are all durable (the
// real protocol syncs them before the manifest), and its manifest is cut to
// a torn prefix the way a power failure mid-sector leaves it.
func TestCrashBetweenShardsAndManifest(t *testing.T) {
	b, m := bankWithData(t, 50)
	dd := devs(2)
	ts := engine.MakeTS(0, ^uint32(0))
	if _, err := Write(b.DB(), dd, Config{Threads: 2}, 1, ts); err != nil {
		t.Fatal(err)
	}

	execDeposit(t, b, m, 1)
	if _, err := Write(b.DB(), dd, Config{Threads: 2}, 2, engine.MakeTS(1, ^uint32(0))); err != nil {
		t.Fatal(err)
	}
	// Crash cut: checkpoint 2's manifest survives only as a 9-byte torn
	// prefix; all its shard files are intact orphans.
	r, err := dd[0].Open(ManifestName(2))
	if err != nil {
		t.Fatal(err)
	}
	man2, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	w := dd[0].Create(ManifestName(2))
	w.Write(man2[:9])
	w.Sync()
	if orphans := dd[1].List("ckpt-000002"); len(orphans) == 0 {
		t.Fatal("test setup: expected orphaned checkpoint-2 shards")
	}

	found, err := FindLatest(dd)
	if err != nil {
		t.Fatal(err)
	}
	if found == nil || found.ID != 1 {
		t.Fatalf("FindLatest = %+v, want the previous checkpoint (id 1)", found)
	}

	// And it still restores, to the pre-deposit state.
	b2 := workload.NewBank(50)
	if _, err := Restore(b2.DB(), dd, found, 2, false); err != nil {
		t.Fatalf("restoring the previous checkpoint: %v", err)
	}
	if got, want := tableTotal(t, b2.DB().Table("Current")), tableTotal(t, b.DB().Table("Current"))-1; got != want {
		t.Fatalf("restored Current total = %d, want the pre-deposit %d", got, want)
	}
}

// TestCheckpointPowerFailMidWrite: a live power failure somewhere inside a
// checkpoint's shard phase (tripped by the fault plane) fails the write and
// must never surface a complete checkpoint — whatever partial shard state
// persisted, the previous checkpoint stays authoritative.
func TestCheckpointPowerFailMidWrite(t *testing.T) {
	b, m := bankWithData(t, 50)
	dd := []*simdisk.Device{
		simdisk.New("cka", simdisk.Unlimited()),
		simdisk.New("ckb", simdisk.Unlimited()),
	}
	if _, err := Write(b.DB(), dd, Config{Threads: 2}, 1, engine.MakeTS(0, ^uint32(0))); err != nil {
		t.Fatal(err)
	}
	execDeposit(t, b, m, 1)

	plan := &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{
		"cka": {CrashAfterSyncs: 2, TornTailBytes: 64, CorruptTornTail: true},
	}}
	plan.Arm(dd...)
	if _, err := Write(b.DB(), dd, Config{Threads: 2}, 2, engine.MakeTS(1, ^uint32(0))); err == nil {
		t.Fatal("checkpoint on a power-failing device should fail")
	}
	if !plan.Tripped() {
		t.Fatal("fault plan never tripped")
	}
	for _, d := range dd {
		d.Crash()
	}
	plan.Disarm()

	found, err := FindLatest(dd)
	if err != nil {
		t.Fatal(err)
	}
	if found == nil || found.ID != 1 {
		t.Fatalf("FindLatest = %+v, want the previous checkpoint (id 1)", found)
	}
	b2 := workload.NewBank(50)
	if _, err := Restore(b2.DB(), dd, found, 2, false); err != nil {
		t.Fatalf("restoring the previous checkpoint: %v", err)
	}
}

// TestTornManifestVariants: manifests damaged every way a power failure can
// damage them — truncated, bit-flipped, empty — must all read as "no such
// checkpoint", never as a wrong checkpoint.
func TestTornManifestVariants(t *testing.T) {
	b, _ := bankWithData(t, 10)
	dd := devs(1)
	man, err := Write(b.DB(), dd, Config{Threads: 1}, 1, engine.MakeTS(0, ^uint32(0)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := dd[0].Open(ManifestName(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	_ = man

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"half header", good[:4]},
		{"header only", good[:frame.HeaderSize]},
		{"missing last table", good[:len(good)-4]},
		{"cut mid tables", good[:len(good)-6]},
		{"bit flip in body", func() []byte {
			d := append([]byte(nil), good...)
			d[frame.HeaderSize+5] ^= 0x40 // inside the TS field: structurally still decodable
			return d
		}()},
		{"bit flip in crc", func() []byte {
			d := append([]byte(nil), good...)
			d[4] ^= 0x01
			return d
		}()},
		{"trailing garbage", append(append([]byte(nil), good...), 0xEE)},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			w := dd[0].Create(ManifestName(1))
			if len(tc.data) > 0 {
				w.Write(tc.data)
			}
			w.Sync()
			found, err := FindLatest(dd)
			if err != nil {
				t.Fatal(err)
			}
			if found != nil {
				t.Fatalf("damaged manifest (%s) accepted: %+v", tc.name, found)
			}
		})
	}

	// Restore the pristine bytes: authoritative again.
	w := dd[0].Create(ManifestName(1))
	w.Write(good)
	w.Sync()
	found, err := FindLatest(dd)
	if err != nil || found == nil || found.ID != 1 {
		t.Fatalf("pristine manifest: %+v, %v", found, err)
	}
}
