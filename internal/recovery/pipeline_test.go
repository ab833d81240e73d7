package recovery

import (
	"testing"

	"pacman/internal/checkpoint"
	"pacman/internal/wal"
)

// TestPipelinedResultAccounting checks the overlap/stall breakdown fields,
// and that the reloader's entry and byte counts match the batch-at-a-time
// reference reload of the same devices.
func TestPipelinedResultAccounting(t *testing.T) {
	f := runFixture(t, wal.Command, 300, 0, true, false, 7)
	_, res := recoverInto(t, f, CLRP, 2, nil)
	if res.LogReload <= 0 {
		t.Error("LogReload not accounted")
	}
	if res.ReloadWall <= 0 {
		t.Error("ReloadWall not accounted")
	}
	if res.ReloadStall < 0 || res.ReloadOverlap < 0 {
		t.Errorf("negative stall/overlap: %v / %v", res.ReloadStall, res.ReloadOverlap)
	}
	if got := res.ReloadStall + res.ReloadOverlap; got != res.ReloadWall && res.ReloadOverlap != 0 {
		// Overlap is defined as wall - stall (clamped), so when both are
		// nonzero they must sum back to the wall.
		t.Errorf("stall %v + overlap %v != wall %v", res.ReloadStall, res.ReloadOverlap, res.ReloadWall)
	}
	_, ref, err := wal.ReloadAll(f.devices, res.Pepoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 300 || ref.Entries != res.Entries {
		t.Errorf("entries: pipelined %d, reference %d, want 300", res.Entries, ref.Entries)
	}
	if ref.Bytes != res.LogBytes {
		t.Errorf("bytes: pipelined %d, reference %d", res.LogBytes, ref.Bytes)
	}
}

// TestCheckpointFilterPushdown recovers with a checkpoint: the readers'
// filter must drop exactly the durable entries the checkpoint covers, and
// checkpoint plus the remaining log must rebuild the forward state.
func TestCheckpointFilterPushdown(t *testing.T) {
	for _, scheme := range []Scheme{LLR, CLRP} {
		f := runFixture(t, scheme.LogKind(), 240, 0, true, true, 99)
		want := snapshotState(f.bank.DB())
		got, res := recoverInto(t, f, scheme, 2, nil)
		sameState(t, want, snapshotState(got.DB()), scheme.String())

		man, err := checkpoint.FindLatest(f.devices)
		if err != nil || man == nil {
			t.Fatalf("%v: no checkpoint on the devices (%v)", scheme, err)
		}
		all, _, err := wal.ReloadAll(f.devices, res.Pepoch, 1)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, e := range all {
			if e.TS <= man.TS {
				covered++
			}
		}
		if covered == 0 {
			t.Errorf("%v: checkpoint covers no entry (fixture must log before the checkpoint)", scheme)
		}
		if res.Filtered != covered {
			t.Errorf("%v: filtered %d entries in readers, checkpoint covers %d", scheme, res.Filtered, covered)
		}
		if res.Entries != len(all)-covered {
			t.Errorf("%v: replayed %d entries, want %d", scheme, res.Entries, len(all)-covered)
		}
	}
}
