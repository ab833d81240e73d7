package simdisk

import (
	"testing"
	"time"
)

// TestReadBusyAccounting: reads and writes charge their own busy accounts.
func TestReadBusyAccounting(t *testing.T) {
	d := New("d", Config{ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30})
	w := d.Create("f")
	payload := make([]byte, 1<<20)
	w.Write(payload)
	afterWrite := d.Stats()
	if afterWrite.ReadBusy != 0 {
		t.Fatalf("ReadBusy = %v after a write", afterWrite.ReadBusy)
	}
	if afterWrite.WriteBusy() <= 0 {
		t.Fatalf("WriteBusy = %v after a write", afterWrite.WriteBusy())
	}
	r, err := d.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadBusy <= 0 {
		t.Fatalf("ReadBusy = %v after a read", st.ReadBusy)
	}
	if st.Busy != st.ReadBusy+st.WriteBusy() {
		t.Fatalf("busy split inconsistent: %v != %v + %v", st.Busy, st.ReadBusy, st.WriteBusy())
	}
}

// TestConcurrentReadersShareBandwidth: two concurrent readers on one device
// queue through the same reservation, so total elapsed time reflects the
// device's bandwidth, not the reader fan-out.
func TestConcurrentReadersShareBandwidth(t *testing.T) {
	const size = 1 << 20
	cfg := Config{ReadBandwidth: 64 << 20} // 1 MB read = ~15.6ms
	d := New("d", cfg)
	for _, n := range []string{"a", "b"} {
		w := d.Create(n)
		w.Write(make([]byte, size))
	}
	start := time.Now()
	done := make(chan error, 2)
	for _, n := range []string{"a", "b"} {
		go func(n string) {
			r, err := d.Open(n)
			if err == nil {
				_, err = r.ReadAll()
			}
			done <- err
		}(n)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	min := transferTime(2*size, cfg.ReadBandwidth)
	if elapsed < min*9/10 {
		t.Fatalf("2 concurrent readers finished in %v, faster than the device allows (%v)", elapsed, min)
	}
	if got := d.Stats().ReadBusy; got < min*9/10 {
		t.Fatalf("ReadBusy = %v, want about %v", got, min)
	}
}
