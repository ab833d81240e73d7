package index

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBTreeBasic(t *testing.T) {
	bt := NewBTree[string]()
	if _, ok := bt.Get(1); ok {
		t.Error("empty tree returned a value")
	}
	if !bt.Insert(1, "a") {
		t.Error("first insert failed")
	}
	if bt.Insert(1, "b") {
		t.Error("duplicate insert succeeded")
	}
	if v, ok := bt.Get(1); !ok || v != "a" {
		t.Errorf("Get(1) = %q, %v", v, ok)
	}
	if bt.Len() != 1 {
		t.Errorf("len = %d", bt.Len())
	}
	if !bt.Delete(1) || bt.Delete(1) {
		t.Error("delete semantics broken")
	}
	if bt.Len() != 0 {
		t.Errorf("len after delete = %d", bt.Len())
	}
}

func TestBTreeGetOrInsert(t *testing.T) {
	bt := NewBTree[int]()
	calls := 0
	v, inserted := bt.GetOrInsert(7, func() int { calls++; return 42 })
	if !inserted || v != 42 || calls != 1 {
		t.Errorf("first GetOrInsert: v=%d inserted=%v calls=%d", v, inserted, calls)
	}
	v, inserted = bt.GetOrInsert(7, func() int { calls++; return 99 })
	if inserted || v != 42 || calls != 1 {
		t.Errorf("second GetOrInsert: v=%d inserted=%v calls=%d", v, inserted, calls)
	}
}

// TestBTreeSplitsAscending forces deep trees through many splits.
func TestBTreeSplitsAscending(t *testing.T) {
	bt := NewBTree[uint64]()
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		if !bt.Insert(i, i*2) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if bt.Len() != n {
		t.Fatalf("len = %d", bt.Len())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := bt.Get(i); !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
}

func TestBTreeSplitsDescendingAndRandom(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"descending": func(i int) uint64 { return uint64(100_000 - i) },
		"random":     func(i int) uint64 { return uint64(i) * 2654435761 % 1_000_003 },
	} {
		bt := NewBTree[int]()
		seen := map[uint64]int{}
		for i := 0; i < 20_000; i++ {
			k := gen(i)
			_, dup := seen[k]
			if ins := bt.Insert(k, i); ins == dup {
				t.Fatalf("%s: insert(%d) = %v but dup = %v", name, k, ins, dup)
			}
			if !dup {
				seen[k] = i
			}
		}
		for k, want := range seen {
			if v, ok := bt.Get(k); !ok || v != want {
				t.Fatalf("%s: Get(%d) = %d, %v; want %d", name, k, v, ok, want)
			}
		}
	}
}

// TestBTreeOracle runs a random mixed workload against a map oracle.
func TestBTreeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bt := NewBTree[int]()
	oracle := map[uint64]int{}
	const keySpace = 2000
	for i := 0; i < 100_000; i++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(5) {
		case 0, 1: // insert
			_, want := oracle[k]
			if got := bt.Insert(k, i); got == want {
				t.Fatalf("step %d: Insert(%d) = %v, oracle has=%v", i, k, got, want)
			}
			if !want {
				oracle[k] = i
			}
		case 2: // delete
			_, want := oracle[k]
			if got := bt.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(oracle, k)
		case 3: // replace
			bt.Delete(k)
			bt.Insert(k, i)
			oracle[k] = i
		default: // get
			want, wantOK := oracle[k]
			got, ok := bt.Get(k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%d) = %d,%v; want %d,%v", i, k, got, ok, want, wantOK)
			}
		}
		if bt.Len() != len(oracle) {
			t.Fatalf("step %d: len %d != oracle %d", i, bt.Len(), len(oracle))
		}
	}
	// Final full verification via scan.
	var keys []uint64
	bt.Scan(0, ^uint64(0), func(k uint64, v int) bool {
		keys = append(keys, k)
		if oracle[k] != v {
			t.Fatalf("scan: key %d = %d, want %d", k, v, oracle[k])
		}
		return true
	})
	if len(keys) != len(oracle) {
		t.Fatalf("scan visited %d keys, oracle has %d", len(keys), len(oracle))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("scan not in key order")
	}
}

func TestBTreeScanRange(t *testing.T) {
	bt := NewBTree[uint64]()
	for i := uint64(0); i < 1000; i += 2 { // even keys only
		bt.Insert(i, i)
	}
	var got []uint64
	bt.Scan(100, 110, func(k uint64, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{100, 102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("scan [100,110] = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan [100,110] = %v", got)
		}
	}
	// Early stop.
	count := 0
	bt.Scan(0, ^uint64(0), func(k uint64, v uint64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
	// Empty range.
	bt.Scan(101, 101, func(k uint64, v uint64) bool {
		t.Errorf("unexpected key %d in empty range", k)
		return true
	})
}

func TestBTreeDeleteHeavy(t *testing.T) {
	bt := NewBTree[int]()
	const n = 5000
	for i := 0; i < n; i++ {
		bt.Insert(uint64(i), i)
	}
	// Delete everything, then reinsert; lazy deletion must not corrupt.
	for i := 0; i < n; i++ {
		if !bt.Delete(uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("len = %d", bt.Len())
	}
	for i := 0; i < n; i++ {
		if !bt.Insert(uint64(i), -i) {
			t.Fatalf("reinsert %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := bt.Get(uint64(i)); !ok || v != -i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestBTreeConcurrentDisjointInserts(t *testing.T) {
	bt := NewBTree[int]()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(w*perWorker + i)
				if !bt.Insert(k, int(k)) {
					t.Errorf("insert %d failed", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if bt.Len() != workers*perWorker {
		t.Fatalf("len = %d", bt.Len())
	}
	for k := 0; k < workers*perWorker; k++ {
		if v, ok := bt.Get(uint64(k)); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestBTreeConcurrentMixed(t *testing.T) {
	bt := NewBTree[int]()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20_000; i++ {
				k := uint64(rng.Intn(4096))
				switch rng.Intn(4) {
				case 0:
					bt.Insert(k, w)
				case 1:
					bt.Delete(k)
				case 2:
					bt.Get(k)
				default:
					bt.Scan(k, k+64, func(uint64, int) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	// Structure must still be a valid search tree: scan yields sorted keys
	// and Get agrees with Scan.
	var keys []uint64
	bt.Scan(0, ^uint64(0), func(k uint64, v int) bool {
		keys = append(keys, k)
		return true
	})
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("scan not sorted after concurrent churn")
	}
	for _, k := range keys {
		if _, ok := bt.Get(k); !ok {
			t.Fatalf("key %d visible in scan but not in Get", k)
		}
	}
	if len(keys) != bt.Len() {
		t.Fatalf("scan count %d != len %d", len(keys), bt.Len())
	}
}

func TestBTreeConcurrentGetOrInsertOnce(t *testing.T) {
	bt := NewBTree[*int]()
	const workers = 16
	results := make([]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, _ := bt.GetOrInsert(1, func() *int { x := w; return &x })
			results[w] = v
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatal("GetOrInsert returned different pointers to racers")
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt := NewBTree[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(uint64(i), i)
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	bt := NewBTree[int]()
	for i := 0; i < 100_000; i++ {
		bt.Insert(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Get(uint64(i % 100_000))
	}
}

func BenchmarkBTreeGetParallel(b *testing.B) {
	bt := NewBTree[int]()
	for i := 0; i < 100_000; i++ {
		bt.Insert(uint64(i), i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			bt.Get(uint64(i % 100_000))
			i++
		}
	})
}
