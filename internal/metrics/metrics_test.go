package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Record(1 * time.Millisecond)
	h.Record(2 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 2*time.Millisecond {
		t.Errorf("mean = %v", got)
	}
	if got := h.Max(); got != 3*time.Millisecond {
		t.Errorf("max = %v", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	// 1..1000 microseconds, uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Percentile(50)
	// Buckets are log-spaced with 8 sub-buckets: the answer must be within
	// ~15% of 500us.
	if p50 < 450*time.Microsecond || p50 > 600*time.Microsecond {
		t.Errorf("p50 = %v, want ~500us", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 900*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Errorf("p99 = %v, want ~990us", p99)
	}
	if h.Percentile(100) < h.Percentile(50) {
		t.Error("percentiles not monotone")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(-time.Second) // clamped to 0
	h.Record(0)
	h.Record(time.Hour) // beyond top bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != time.Hour {
		t.Errorf("max = %v", h.Max())
	}
	if h.Percentile(100) < time.Minute {
		t.Errorf("p100 = %v, should land in top bucket", h.Percentile(100))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("reset did not clear histogram")
	}
	if h.Snapshot() == "" {
		t.Error("snapshot should be non-empty")
	}
}

func TestDurationSum(t *testing.T) {
	var s DurationSum
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Add(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := s.Load(); got != 800*time.Millisecond {
		t.Fatalf("DurationSum = %v, want 800ms", got)
	}
	s.AddSince(time.Now().Add(-time.Hour))
	if got := s.Load(); got < time.Hour {
		t.Fatalf("AddSince accumulated %v, want >= 1h", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(10)
	if c.Load() != 11 {
		t.Errorf("counter = %d", c.Load())
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("work", "load", "sched")
	b.Add("work", 3*time.Second)
	b.Add("load", time.Second)
	b.Add("sched", time.Millisecond)
	if b.Get("work") != 3*time.Second {
		t.Errorf("work = %v", b.Get("work"))
	}
	total := b.Total()
	if total < 4*time.Second {
		t.Errorf("total = %v", total)
	}
	shares := b.Shares()
	if len(shares) != 3 || shares[0].Name != "work" {
		t.Fatalf("shares = %+v", shares)
	}
	var sum float64
	for _, s := range shares {
		sum += s.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %f", sum)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown("a")
	if b.Total() != 0 {
		t.Error("empty breakdown total != 0")
	}
	if s := b.Shares(); s[0].Share != 0 {
		t.Error("empty breakdown share != 0")
	}
}
