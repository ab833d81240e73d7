package engine

import (
	"fmt"
	"sync"
	"testing"

	"pacman/internal/tuple"
)

// chainTSs returns the BeginTS sequence of a row's chain, newest first.
func chainTSs(r *Row) []TS {
	var out []TS
	for v := r.Head(); v != nil; v = v.next.Load() {
		out = append(out, v.BeginTS)
	}
	return out
}

func tupOf(n int64) tuple.Tuple { return tuple.Tuple{tuple.I(n)} }

// TestInsertVersionSortedAdversarial drives the sorted-splice primitive
// through the orders logical-log recovery actually produces: out-of-order
// arrivals, duplicates (idempotent replay), tombstones interleaved with
// data, and splices below an existing tail.
func TestInsertVersionSortedAdversarial(t *testing.T) {
	cases := []struct {
		name    string
		inserts []TS // insertion order
		dead    map[TS]bool
		want    []TS // expected chain, newest first
	}{
		{
			name:    "ascending",
			inserts: []TS{1, 2, 3},
			want:    []TS{3, 2, 1},
		},
		{
			name:    "descending",
			inserts: []TS{9, 5, 1},
			want:    []TS{9, 5, 1},
		},
		{
			name:    "zigzag",
			inserts: []TS{5, 9, 1, 7, 3},
			want:    []TS{9, 7, 5, 3, 1},
		},
		{
			name:    "duplicate head ignored",
			inserts: []TS{4, 4},
			want:    []TS{4},
		},
		{
			name:    "duplicate interior ignored",
			inserts: []TS{2, 8, 5, 5, 2, 8},
			want:    []TS{8, 5, 2},
		},
		{
			name:    "splice below tail",
			inserts: []TS{10, 6, 2},
			want:    []TS{10, 6, 2},
		},
		{
			name:    "tombstones interleaved",
			inserts: []TS{3, 1, 4, 2},
			dead:    map[TS]bool{2: true, 4: true},
			want:    []TS{4, 3, 2, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Row{Key: 1}
			for _, ts := range tc.inserts {
				r.InsertVersionSorted(ts, tupOf(int64(ts)), tc.dead[ts])
			}
			got := chainTSs(r)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("chain = %v, want %v", got, tc.want)
			}
			if len(chainTSs(r)) != len(tc.want) {
				t.Fatalf("VersionCount = %d, want %d", len(chainTSs(r)), len(tc.want))
			}
			// Every surviving version must read back at its own timestamp;
			// tombstones must read as absent.
			for v := r.Head(); v != nil; v = v.next.Load() {
				d := r.ReadAt(v.BeginTS)
				if v.Deleted {
					if d != nil {
						t.Fatalf("ts %d: tombstone read data %v", v.BeginTS, d)
					}
				} else if d == nil || d[0].Int() != int64(v.BeginTS) {
					t.Fatalf("ts %d: read %v", v.BeginTS, d)
				}
			}
		})
	}
}

// TestInsertVersionSortedDuplicateKeepsFirst: idempotent replay must keep
// the first-installed payload for a timestamp, not overwrite it.
func TestInsertVersionSortedDuplicateKeepsFirst(t *testing.T) {
	r := &Row{Key: 1}
	r.InsertVersionSorted(7, tupOf(100), false)
	r.InsertVersionSorted(7, tupOf(200), false)
	if d := r.ReadAt(7); d[0].Int() != 100 {
		t.Fatalf("duplicate overwrote payload: %v", d)
	}
}

// TestSetHeadAndRetainDiscard exercises retain-vs-discard install and raw
// head replacement.
func TestSetHeadAndRetainDiscard(t *testing.T) {
	r := &Row{Key: 1}
	r.Install(1, tupOf(1), false, true)
	r.Install(2, tupOf(2), false, true)
	if n := len(chainTSs(r)); n != 2 {
		t.Fatalf("retain chain = %d", n)
	}
	// Discarding install drops all history.
	r.Install(3, tupOf(3), false, false)
	if n := len(chainTSs(r)); n != 1 {
		t.Fatalf("discard chain = %d", n)
	}
	if d := r.ReadAt(2); d != nil {
		t.Fatalf("history survived discard: %v", d)
	}
	// SetHead splices an arbitrary chain in.
	old := &Version{BeginTS: 1, Data: tupOf(10)}
	head := &Version{BeginTS: 5, Data: tupOf(50)}
	head.next.Store(old)
	r.head.Store(head)
	if got := chainTSs(r); fmt.Sprint(got) != "[5 1]" {
		t.Fatalf("after SetHead chain = %v", got)
	}
	r.head.Store(nil)
	if len(chainTSs(r)) != 0 || r.ReadAt(9) != nil {
		t.Fatal("SetHead(nil) did not clear the row")
	}
}

// TestInstallPreparedLinks: prepared installs must overwrite whatever link
// the version carried (pool slabs may hand back versions with stale links).
func TestInstallPreparedLinks(t *testing.T) {
	r := &Row{Key: 1}
	stale := &Version{BeginTS: 99}
	v1 := &Version{BeginTS: 1, Data: tupOf(1)}
	v1.next.Store(stale)
	r.InstallPrepared(v1, false)
	if got := chainTSs(r); fmt.Sprint(got) != "[1]" {
		t.Fatalf("discard install kept stale link: %v", got)
	}
	v2 := &Version{BeginTS: 2, Data: tupOf(2)}
	v2.next.Store(stale)
	r.InstallPrepared(v2, true)
	if got := chainTSs(r); fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("retain install chain = %v", got)
	}
}

// TestTruncateVersions covers the GC primitive's boundary cases: floors
// between versions, at a version, below the tail, above the head, tombstone
// boundaries, and empty rows.
func TestTruncateVersions(t *testing.T) {
	build := func(tss ...TS) *Row {
		r := &Row{Key: 1}
		for _, ts := range tss {
			r.Install(ts, tupOf(int64(ts)), false, true)
		}
		return r
	}
	t.Run("floor between versions", func(t *testing.T) {
		r := build(2, 4, 6, 8)
		kept, pruned := r.TruncateVersions(5)
		// Boundary is 4 (newest <= 5): keep 8, 6, 4; prune 2.
		if kept != 3 || pruned != 1 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
		if got := chainTSs(r); fmt.Sprint(got) != "[8 6 4]" {
			t.Fatalf("chain = %v", got)
		}
		if d := r.ReadAt(5); d[0].Int() != 4 {
			t.Fatalf("read at floor = %v", d)
		}
	})
	t.Run("floor at a version", func(t *testing.T) {
		r := build(2, 4, 6)
		kept, pruned := r.TruncateVersions(4)
		if kept != 2 || pruned != 1 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
	})
	t.Run("floor below tail keeps all", func(t *testing.T) {
		r := build(5, 7)
		kept, pruned := r.TruncateVersions(1)
		if kept != 2 || pruned != 0 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
	})
	t.Run("floor above head keeps only head", func(t *testing.T) {
		r := build(1, 2, 3)
		kept, pruned := r.TruncateVersions(100)
		if kept != 1 || pruned != 2 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
	})
	t.Run("tombstone boundary survives", func(t *testing.T) {
		r := build(1, 2)
		r.Install(3, nil, true, true) // delete at 3
		r.Install(5, tupOf(5), false, true)
		kept, pruned := r.TruncateVersions(3)
		if kept != 2 || pruned != 2 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
		// The cut at 3 (and 4) must still observe the deletion.
		if d := r.ReadAt(4); d != nil {
			t.Fatalf("deleted row visible after truncate: %v", d)
		}
	})
	t.Run("empty row", func(t *testing.T) {
		r := &Row{Key: 1}
		if kept, pruned := r.TruncateVersions(5); kept != 0 || pruned != 0 {
			t.Fatalf("kept=%d pruned=%d", kept, pruned)
		}
	})
	t.Run("idempotent", func(t *testing.T) {
		r := build(2, 4, 6)
		r.TruncateVersions(4)
		if kept, pruned := r.TruncateVersions(4); kept != 2 || pruned != 0 {
			t.Fatalf("second truncate kept=%d pruned=%d", kept, pruned)
		}
	})
}

// TestTruncateConcurrentWithReaders races the GC primitive against
// lock-free chain traversals at timestamps at and above the floor — the
// exact interleaving the atomic chain link exists for.
func TestTruncateConcurrentWithReaders(t *testing.T) {
	r := &Row{Key: 1}
	const versions = 64
	for ts := TS(1); ts <= versions; ts++ {
		r.Install(ts, tupOf(int64(ts)), false, true)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Readers stay at or above the moving floor.
				ts := TS(versions/2 + g)
				if d := r.ReadAt(ts); d == nil || d[0].Int() != int64(ts) {
					t.Errorf("read at %d = %v", ts, d)
					return
				}
			}
		}(g)
	}
	for floor := TS(1); floor <= versions/2; floor++ {
		r.Lock()
		r.TruncateVersions(floor)
		r.Unlock()
	}
	close(stop)
	wg.Wait()
	if n := len(chainTSs(r)); n != versions/2+1 {
		t.Fatalf("final chain = %d", n)
	}
}
