package workload

import "testing"

// TestAccountRangeOf checks contiguity (every customer lands on exactly one
// shard, ranges are even), monotonicity, and edge clamping.
func TestAccountRangeOf(t *testing.T) {
	cases := []struct {
		custid            int64
		shards, customers int
		want              int
	}{
		{1, 4, 100, 0},
		{25, 4, 100, 0},
		{26, 4, 100, 1},
		{50, 4, 100, 1},
		{51, 4, 100, 2},
		{100, 4, 100, 3},
		{1, 1, 100, 0},
		{42, 1, 100, 0},
		{0, 4, 100, 0},   // below range clamps low
		{-5, 4, 100, 0},  // below range clamps low
		{101, 4, 100, 3}, // above range clamps high
		{7, 3, 10, 1},    // uneven split: 10 customers over 3 shards
		{10, 3, 10, 2},
	}
	for _, c := range cases {
		if got := AccountRangeOf(c.custid, c.shards, c.customers); got != c.want {
			t.Errorf("AccountRangeOf(%d, %d, %d) = %d, want %d", c.custid, c.shards, c.customers, got, c.want)
		}
	}

	// Every customer maps to exactly one shard and counts are balanced
	// within one of each other.
	const shards, customers = 4, 1000
	counts := make([]int, shards)
	prev := 0
	for id := int64(1); id <= customers; id++ {
		s := AccountRangeOf(id, shards, customers)
		if s < prev {
			t.Fatalf("AccountRangeOf not monotone at custid %d: %d after %d", id, s, prev)
		}
		prev = s
		counts[s]++
	}
	for i, n := range counts {
		if n != customers/shards {
			t.Errorf("shard %d owns %d customers, want %d", i, n, customers/shards)
		}
	}
}
