package torture

import (
	"runtime"
	"testing"
)

// TestClusterTorture runs the sharded-cluster cycle end to end: a 2-shard
// Smallbank cluster behind a router, with one shard killed mid-traffic on
// the even cycle and the router killed mid-2PC on the odd one, and the
// cluster oracle (cross-shard balance conservation, ledger atomicity,
// per-gtid 2PC agreement) verified after every recovery.
func TestClusterTorture(t *testing.T) {
	g0 := runtime.NumGoroutine()
	st, err := RunCluster(Config{Seed: 7, Cycles: 2, TxnsPerCycle: 300, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardKills != 1 || st.RouterKills != 1 {
		t.Fatalf("expected one shard kill and one router kill, got %s", st)
	}
	if st.Acked == 0 {
		t.Fatalf("no transactions acknowledged durable: %s", st)
	}
	if st.Stamps == 0 {
		t.Fatalf("no ledger stamps exercised the atomicity oracle: %s", st)
	}
	t.Logf("cluster torture: %s", st)
	checkNoLeak(t, g0)
}

// TestClusterTortureSeeds shakes the cluster cycle across a few seeds so
// the kill instants land in different phases of the 2PC pipeline.
func TestClusterTortureSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed cluster torture in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		st, err := RunCluster(Config{Seed: seed, Cycles: 2, TxnsPerCycle: 200, Clients: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Acked == 0 {
			t.Fatalf("seed %d: no acked transactions: %s", seed, st)
		}
	}
}
