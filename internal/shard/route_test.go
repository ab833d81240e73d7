package shard

import (
	"reflect"
	"testing"

	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

func ia(v int64) []tuple.Value   { return proc.A(tuple.I(v)) }
func fa(v float64) []tuple.Value { return proc.A(tuple.F(v)) }

// TestRoutingSmallbank checks the static extraction over the Smallbank
// procedures: single-customer procedures route to the customer's range,
// two-customer ones to the union.
func TestRoutingSmallbank(t *testing.T) {
	spec := workload.Spec(workload.NewSmallbank(workload.SmallbankConfig{Customers: 100, HotspotPct: 1}))
	r := NewRouting(spec.Procs, SmallbankPartitioner{NumShards: 4, Customers: 100})

	cases := []struct {
		proc string
		args proc.Args
		want []int
	}{
		{"DepositChecking", proc.Args{ia(1), fa(5)}, []int{0}},
		{"DepositChecking", proc.Args{ia(100), fa(5)}, []int{3}},
		{"Balance", proc.Args{ia(30)}, []int{1}},
		{"TransactSavings", proc.Args{ia(55), fa(5)}, []int{2}},
		{"WriteCheck", proc.Args{ia(76), fa(5)}, []int{3}},
		{"SendPayment", proc.Args{ia(1), fa(2), fa(5)}, nil}, // c2 must be int for key eval
		{"SendPayment", proc.Args{ia(1), ia(2), fa(5)}, []int{0}},
		{"SendPayment", proc.Args{ia(1), ia(99), fa(5)}, []int{0, 3}},
		{"Amalgamate", proc.Args{ia(10), ia(60)}, []int{0, 2}},
	}
	for _, c := range cases {
		got, err := r.Route(c.proc, c.args)
		if c.want == nil {
			if err == nil {
				t.Errorf("Route(%s) = %v, want error", c.proc, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Route(%s): %v", c.proc, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Route(%s, %v) = %v, want %v", c.proc, c.args, got, c.want)
		}
	}

	if _, err := r.Route("NoSuchProc", nil); err == nil {
		t.Error("Route(NoSuchProc) succeeded")
	}
}

// tpccPartitioner places TPC-C by warehouse, round-robin over the shards;
// ITEM and unknown tables are replicated. No cluster serves TPC-C, so only
// these tests need it.
type tpccPartitioner struct{ numShards int }

func (p tpccPartitioner) Shards() int { return p.numShards }

func (p tpccPartitioner) ShardOf(table string, attr int64) (int, bool) {
	switch table {
	case "WAREHOUSE", "DISTRICT", "CUSTOMER", "OORDER", "NEW_ORDER",
		"ORDER_LINE", "STOCK", "HISTORY":
		return int(max(attr-1, 0) % int64(p.numShards)), true
	}
	return 0, false
}

// TestRoutingTPCC checks extraction over the TPC-C templates, whose keys
// are packed composites: the warehouse rides the top field, so even keys
// whose low fields come from read registers (OORDER via d_next_o_id) or
// loop variables (STOCK per order line) extract their warehouse from
// parameters alone.
func TestRoutingTPCC(t *testing.T) {
	cfg := workload.DefaultTPCCConfig()
	cfg.Warehouses = 4
	spec := workload.Spec(workload.NewTPCC(cfg))
	part := tpccPartitioner{numShards: 2}
	r := NewRouting(spec.Procs, part)

	// Warehouses place round-robin: w1→0, w2→1, w3→0, w4→1.
	items := proc.L(tuple.I(7), tuple.I(9))
	newOrderArgs := func(w, supw int64) proc.Args {
		return proc.Args{ia(w), ia(1), ia(1), items, ia(supw), ia(5), ia(2), ia(0), ia(0)}
	}
	cases := []struct {
		proc string
		args proc.Args
		want []int
	}{
		{"NewOrder", newOrderArgs(1, 1), []int{0}},
		{"NewOrder", newOrderArgs(1, 2), []int{0, 1}}, // remote supply warehouse
		{"Payment", proc.Args{ia(2), ia(1), ia(2), ia(1), ia(3), fa(10), ia(0)}, []int{1}},
		{"Payment", proc.Args{ia(2), ia(1), ia(3), ia(1), ia(3), fa(10), ia(0)}, []int{0, 1}}, // remote customer
	}
	for _, c := range cases {
		got, err := r.Route(c.proc, c.args)
		if err != nil {
			t.Errorf("Route(%s): %v", c.proc, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Route(%s) = %v, want %v", c.proc, got, c.want)
		}
	}
}

// TestRoutingOpaqueFallback: a procedure whose partitioned-table key hangs
// off a read register is unroutable, and Route says so rather than
// guessing.
func TestRoutingOpaqueFallback(t *testing.T) {
	opaque := &proc.Procedure{
		Name:   "Opaque",
		Params: []proc.ParamDef{proc.P("c")},
		Body: []proc.Stmt{
			proc.Read("x", "CHECKING", proc.Pm("c"), "bal"),
			proc.Write("SAVINGS", proc.V("x"), proc.Set("bal", proc.CF(0))),
		},
	}
	r := NewRouting([]*proc.Procedure{opaque}, SmallbankPartitioner{NumShards: 2, Customers: 100})
	if _, err := r.Route("Opaque", proc.Args{ia(1)}); err == nil {
		t.Fatal("opaque procedure routed without error")
	}

	// The same body against a replicated-only partitioner routes fine: the
	// opaque key is on a table the partitioner does not constrain.
	r2 := NewRouting([]*proc.Procedure{opaque}, tpccPartitioner{numShards: 2})
	if got, err := r2.Route("Opaque", proc.Args{ia(1)}); err != nil || !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("replicated-only route = %v, %v", got, err)
	}
}
