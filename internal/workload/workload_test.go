package workload

import (
	"errors"
	"math/rand"
	"testing"

	"pacman/internal/analysis"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/txn"
)

// indexLen counts the keys in a table's primary index.
func indexLen(tab *engine.Table) int {
	n := 0
	tab.ScanIndex(0, ^uint64(0), func(*engine.Row) bool { n++; return true })
	return n
}

func smallTPCC() TPCCConfig {
	return TPCCConfig{
		Warehouses:            2,
		DistrictsPerWH:        2,
		CustomersPerDistrict:  20,
		Items:                 50,
		InitOrdersPerDistrict: 12,
		LinesPerOrder:         3,
		InvalidItemPct:        2,
	}
}

func TestTPCCPopulateDeterministic(t *testing.T) {
	a := NewTPCC(smallTPCC())
	a.Populate(DirectPopulate{})
	b := NewTPCC(smallTPCC())
	b.Populate(DirectPopulate{})
	for _, ta := range a.DB().Tables() {
		tb := b.DB().Table(ta.Name())
		if ta.NumSlots() != tb.NumSlots() {
			t.Fatalf("table %s: %d vs %d slots", ta.Name(), ta.NumSlots(), tb.NumSlots())
		}
		ta.ScanSlots(0, ta.NumSlots(), func(r *engine.Row) {
			r2 := tb.RowBySlot(r.Slot)
			if r2 == nil || r2.Key != r.Key || !r2.LatestData().Equal(r.LatestData()) {
				t.Fatalf("table %s slot %d differs", ta.Name(), r.Slot)
			}
		})
	}
	// Expected row counts.
	cfg := smallTPCC()
	if got := indexLen(a.DB().Table("CUSTOMER")); got != cfg.Warehouses*cfg.DistrictsPerWH*cfg.CustomersPerDistrict {
		t.Errorf("customers = %d", got)
	}
	if got := indexLen(a.DB().Table("STOCK")); got != cfg.Warehouses*cfg.Items {
		t.Errorf("stock = %d", got)
	}
}

func TestTPCCMixExecutes(t *testing.T) {
	w := NewTPCC(smallTPCC())
	w.Populate(DirectPopulate{})
	m := txn.NewManager(w.DB(), txn.DefaultConfig())
	worker := m.NewWorker()
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	aborted := 0
	for i := 0; i < 600; i++ {
		tx := w.Generate(rng)
		counts[tx.Proc.Name()]++
		_, err := worker.Execute(tx.Proc, tx.Args, tx.AdHoc)
		if err != nil {
			if errors.Is(err, proc.ErrAborted) && tx.MayAbort {
				aborted++
				continue
			}
			t.Fatalf("%s: %v", tx.Proc.Name(), err)
		}
	}
	for _, name := range []string{"NewOrder", "Payment", "Delivery", "OrderStatus", "StockLevel"} {
		if counts[name] == 0 {
			t.Errorf("mix never produced %s (counts=%v)", name, counts)
		}
	}
	if aborted == 0 {
		t.Log("note: no invalid-item aborts in this sample")
	}
	// NewOrder must advance district counters.
	dk := keyD.Pack(1, 1)
	r, ok := w.DB().Table("DISTRICT").GetRow(dk)
	if !ok {
		t.Fatal("district missing")
	}
	if r.LatestData()[8].Int() <= int64(smallTPCC().InitOrdersPerDistrict+1) {
		t.Log("note: district (1,1) saw no NewOrder in this sample")
	}
}

// TestTPCCGDGStructure checks the Appendix C structure: the district
// counter, warehouse, customer, order-chain, and stock blocks exist with
// NewOrder/Payment/Delivery slices mingled, and read-only ITEM stays apart.
func TestTPCCGDGStructure(t *testing.T) {
	w := NewTPCC(smallTPCC())
	var ldgs []*analysis.LDG
	for _, p := range w.LoggingProcs() {
		ldgs = append(ldgs, analysis.BuildLDG(p))
	}
	g := analysis.BuildGDG(ldgs)
	db := w.DB()

	// Every modified table has exactly one owner block.
	owners := map[string]int{}
	for _, name := range []string{"WAREHOUSE", "DISTRICT", "CUSTOMER", "HISTORY",
		"NEW_ORDER", "OORDER", "ORDER_LINE", "STOCK"} {
		b := g.TableOwner(db.Table(name).ID())
		if b < 0 {
			t.Errorf("table %s has no owner block", name)
		}
		owners[name] = b
	}
	// ITEM is read-only: no owner.
	if g.TableOwner(db.Table("ITEM").ID()) != -1 {
		t.Error("ITEM should have no owner")
	}
	// District and Stock belong to different blocks (independent key
	// spaces — the source of TPC-C's coarse parallelism).
	if owners["DISTRICT"] == owners["STOCK"] {
		t.Errorf("DISTRICT and STOCK share block %d", owners["DISTRICT"])
	}
	// Warehouse and Customer are separate as well.
	if owners["WAREHOUSE"] == owners["CUSTOMER"] {
		t.Error("WAREHOUSE and CUSTOMER merged")
	}
	// The GDG must have several blocks (coarse-grained parallelism) and be
	// more than 3 (one per procedure would mean no decomposition).
	if g.NumBlocks() < 5 {
		t.Errorf("blocks = %d\n%s", g.NumBlocks(), g)
	}
	// NewOrder and Payment both write DISTRICT: their slices share its
	// block (the cross-procedure mingling of Figure 21).
	found := map[int]bool{}
	for _, ref := range g.Blocks[owners["DISTRICT"]].Slices {
		found[ref.ProcID] = true
	}
	if !found[w.NewOrder.ID()] || !found[w.Payment.ID()] {
		t.Errorf("district block lacks NewOrder+Payment slices: %v", g.Blocks[owners["DISTRICT"]].Slices)
	}
	// OORDER block holds NewOrder (insert) and Delivery (update) slices.
	found = map[int]bool{}
	for _, ref := range g.Blocks[owners["OORDER"]].Slices {
		found[ref.ProcID] = true
	}
	if !found[w.NewOrder.ID()] || !found[w.Delivery.ID()] {
		t.Errorf("order block lacks NewOrder+Delivery slices")
	}
}

func TestTPCCDisableInserts(t *testing.T) {
	cfg := smallTPCC()
	cfg.DisableInserts = true
	w := NewTPCC(cfg)
	w.Populate(DirectPopulate{})
	m := txn.NewManager(w.DB(), txn.DefaultConfig())
	worker := m.NewWorker()
	rng := rand.New(rand.NewSource(3))
	before := indexLen(w.DB().Table("OORDER"))
	for i := 0; i < 200; i++ {
		tx := w.Generate(rng)
		if _, err := worker.Execute(tx.Proc, tx.Args, false); err != nil &&
			!(errors.Is(err, proc.ErrAborted) && tx.MayAbort) {
			t.Fatal(err)
		}
	}
	if after := indexLen(w.DB().Table("OORDER")); after != before {
		t.Errorf("inserts not disabled: OORDER grew %d -> %d", before, after)
	}
}

func TestSmallbankMixAndInvariant(t *testing.T) {
	cfg := SmallbankConfig{Customers: 50, HotspotPct: 25}
	s := NewSmallbank(cfg)
	s.Populate(DirectPopulate{})
	m := txn.NewManager(s.DB(), txn.DefaultConfig())
	worker := m.NewWorker()
	rng := rand.New(rand.NewSource(9))

	total := func() float64 {
		var sum float64
		for _, name := range []string{"SAVINGS", "CHECKING"} {
			tab := s.DB().Table(name)
			tab.ScanSlots(0, tab.NumSlots(), func(r *engine.Row) {
				sum += r.LatestData()[1].Float()
			})
		}
		return sum
	}
	before := total()
	deposits := 0.0
	for i := 0; i < 500; i++ {
		tx := s.Generate(rng)
		_, err := worker.Execute(tx.Proc, tx.Args, tx.AdHoc)
		if err != nil {
			if errors.Is(err, proc.ErrAborted) && tx.MayAbort {
				continue
			}
			t.Fatalf("%s: %v", tx.Proc.Name(), err)
		}
		// Track money injected/removed by non-transfer procedures.
		switch tx.Proc {
		case s.DepositChecking:
			deposits += tx.Args[1][0].Float()
		case s.TransactSavings:
			deposits += tx.Args[1][0].Float()
		case s.WriteCheck:
			// Withdrawal (possibly with penalty); just mark imbalance
			// allowed.
			deposits -= tx.Args[1][0].Float()
		}
	}
	after := total()
	// Amalgamate and SendPayment conserve money; WriteCheck penalties make
	// the exact check loose. Verify the books are within the penalty sum.
	diff := after - before - deposits
	if diff > 1 || diff < -float64(500) { // at most 1 per WriteCheck penalty
		t.Errorf("money leak: before=%.2f after=%.2f deposits=%.2f diff=%.2f",
			before, after, deposits, diff)
	}
}

func TestSmallbankGDG(t *testing.T) {
	s := NewSmallbank(SmallbankConfig{Customers: 10, HotspotPct: 10})
	var ldgs []*analysis.LDG
	for _, p := range s.LoggingProcs() {
		ldgs = append(ldgs, analysis.BuildLDG(p))
	}
	g := analysis.BuildGDG(ldgs)
	db := s.DB()
	sb := g.TableOwner(db.Table("SAVINGS").ID())
	cb := g.TableOwner(db.Table("CHECKING").ID())
	if sb < 0 || cb < 0 {
		t.Fatal("owners missing")
	}
	if sb == cb {
		t.Errorf("SAVINGS and CHECKING merged into block %d\n%s", sb, g)
	}
	// Savings block precedes checking block (Amalgamate/WriteCheck flow).
	foundEdge := false
	for _, succ := range g.Succs(sb) {
		if succ == cb {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Errorf("no SAVINGS->CHECKING edge\n%s", g)
	}
	if g.TableOwner(db.Table("ACCOUNTS").ID()) != -1 {
		t.Error("ACCOUNTS should be read-only")
	}
}

func TestBankWorkloadInterface(t *testing.T) {
	var _ Workload = NewBank(10)
	var _ Workload = NewTPCC(smallTPCC())
	var _ Workload = NewSmallbank(SmallbankConfig{Customers: 10})
	b := NewBank(10)
	if b.Name() != "bank" || b.DB() == nil || b.Registry().Len() != 2 {
		t.Error("bank metadata broken")
	}
	w := NewTPCC(smallTPCC())
	if w.Name() != "tpcc" || w.Registry().Len() != 5 || len(w.LoggingProcs()) != 3 {
		t.Error("tpcc metadata broken")
	}
	s := NewSmallbank(SmallbankConfig{Customers: 10})
	if s.Name() != "smallbank" || s.Registry().Len() != 6 || len(s.LoggingProcs()) != 5 {
		t.Error("smallbank metadata broken")
	}
	// Zero configs fall back to defaults.
	if NewTPCC(TPCCConfig{}).Config().Warehouses == 0 {
		t.Error("TPCC default config not applied")
	}
	if NewSmallbank(SmallbankConfig{}).Config().Customers == 0 {
		t.Error("Smallbank default config not applied")
	}
}
