package simdisk

import (
	"io"
	"sync"
	"testing"
	"time"
)

func TestCreateWriteRead(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("a.log")
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 11 {
		t.Errorf("size = %d", w.Size())
	}
	r, err := d.Open("a.log")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil || string(got) != "hello world" {
		t.Errorf("read %q, err %v", got, err)
	}
	// Reader positioned at EOF now.
	buf := make([]byte, 4)
	if _, err := r.Read(buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderChunked(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("f")
	w.Write([]byte("abcdefgh"))
	r, _ := d.Open("f")
	buf := make([]byte, 3)
	var all []byte
	for {
		n, err := r.Read(buf)
		all = append(all, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(all) != "abcdefgh" {
		t.Errorf("chunked read = %q", all)
	}
}

func TestOpenMissing(t *testing.T) {
	d := New("t", Unlimited())
	if _, err := d.Open("nope"); err == nil {
		t.Error("expected error for missing file")
	}
	if err := d.Remove("nope"); err == nil {
		t.Error("expected error removing missing file")
	}
	if _, err := d.Size("nope"); err == nil {
		t.Error("expected error sizing missing file")
	}
}

func TestListAndRemove(t *testing.T) {
	d := New("t", Unlimited())
	d.Create("log-2")
	d.Create("log-1")
	d.Create("ckpt-1")
	got := d.List("log-")
	if len(got) != 2 || got[0] != "log-1" || got[1] != "log-2" {
		t.Errorf("list = %v", got)
	}
	if err := d.Remove("log-1"); err != nil {
		t.Fatal(err)
	}
	if got := d.List("log-"); len(got) != 1 {
		t.Errorf("after remove, list = %v", got)
	}
}

func TestCrashTruncatesToDurable(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("wal")
	w.Write([]byte("durable-part"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("-lost-part"))
	d.Crash()
	r, _ := d.Open("wal")
	got, _ := r.ReadAll()
	if string(got) != "durable-part" {
		t.Errorf("after crash: %q", got)
	}
	// A file never synced loses everything.
	w2 := d.Create("tmp")
	w2.Write([]byte("xxxx"))
	d.Crash()
	if sz, _ := d.Size("tmp"); sz != 0 {
		t.Errorf("unsynced file survived crash with %d bytes", sz)
	}
}

// TestClone: a clone carries every file and its durable watermark, and the
// two devices never share bytes afterwards.
func TestClone(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("wal")
	w.Write([]byte("durable"))
	w.Sync()
	w.Write([]byte("-unsynced"))

	c := d.Clone()
	if c.Name() != "t" {
		t.Errorf("clone name = %q", c.Name())
	}
	if s := c.Stats(); s.BytesWritten != 0 || s.BytesRead != 0 {
		t.Errorf("clone stats = %+v, want zeros", s)
	}
	c.Create("extra").Sync()
	cw := c.Append("wal")
	cw.Write([]byte("!"))
	if names := d.List(""); len(names) != 1 {
		t.Errorf("original gained files from its clone: %v", names)
	}
	if sz, _ := d.Size("wal"); sz != int64(len("durable-unsynced")) {
		t.Errorf("original wal is %d bytes after the clone's append", sz)
	}
	c.Crash()
	r, _ := c.Open("wal")
	if got, _ := r.ReadAll(); string(got) != "durable" {
		t.Errorf("clone after crash: %q, want the durable prefix", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("f")
	w.Write(make([]byte, 100))
	w.Sync()
	r, _ := d.Open("f")
	r.ReadAll()
	s := d.Stats()
	if s.BytesWritten != 100 || s.BytesRead != 100 || s.Syncs != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBandwidthModelDelays(t *testing.T) {
	// 1 MB/s: a 100 KB write should take ~100ms.
	d := New("t", Config{WriteBandwidth: 1 << 20})
	w := d.Create("f")
	start := time.Now()
	w.Write(make([]byte, 100<<10))
	el := time.Since(start)
	if el < 50*time.Millisecond {
		t.Errorf("write returned in %v; bandwidth model not applied", el)
	}
	if el > time.Second {
		t.Errorf("write took %v; model too slow", el)
	}
}

func TestSyncLatency(t *testing.T) {
	d := New("t", Config{SyncLatency: 20 * time.Millisecond})
	w := d.Create("f")
	start := time.Now()
	w.Sync()
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("sync returned in %v; latency model not applied", el)
	}
}

func TestDeviceSaturation(t *testing.T) {
	// Two writers share one 2 MB/s device. Their writes queue behind each
	// other, so together they take at least the device's time for all the
	// bytes: 2 x 4 x 64 KiB at 2 MiB/s = 250ms. Sleeping only overshoots,
	// so a slow host cannot fail this bound; writers that did not queue
	// would finish in half of it.
	cfg := Config{WriteBandwidth: 2 << 20}
	chunk := make([]byte, 64<<10)
	shared := New("shared", cfg)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := shared.Create("f" + string(rune('0'+g)))
			for i := 0; i < 4; i++ {
				w.Write(chunk)
			}
		}(g)
	}
	wg.Wait()
	sharedTime := time.Since(start)
	if model := transferTime(2*4*int64(len(chunk)), cfg.WriteBandwidth); sharedTime < model {
		t.Errorf("saturation not modeled: two writers took %v, the device needs %v", sharedTime, model)
	}
}

func TestBusyAccounting(t *testing.T) {
	d := New("t", Config{WriteBandwidth: 1 << 20})
	w := d.Create("f")
	w.Write(make([]byte, 1<<20)) // 1s of modeled time
	busy := d.Stats().Busy
	if busy < 900*time.Millisecond || busy > 1100*time.Millisecond {
		t.Errorf("busy = %v, want ~1s", busy)
	}
}

func TestUnlimitedIsFast(t *testing.T) {
	d := New("t", Unlimited())
	w := d.Create("f")
	chunk := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 20; i++ {
		w.Write(chunk)
		w.Sync()
	}
	// No modeled delays: only memory-copy cost, far below any modeled
	// bandwidth at these sizes. The bound is generous because the race
	// suite runs many packages in parallel and wall-clock time here is
	// mostly scheduler contention, not device behavior.
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("unlimited device too slow: %v", el)
	}
}

func TestConcurrentFileAccess(t *testing.T) {
	d := New("t", Unlimited())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			w := d.Create(name)
			for i := 0; i < 100; i++ {
				w.Write([]byte{byte(i)})
			}
			w.Sync()
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		name := string(rune('a' + g))
		if sz, err := d.Size(name); err != nil || sz != 100 {
			t.Errorf("file %s: size=%d err=%v", name, sz, err)
		}
	}
}
