package proc

import (
	"testing"

	"pacman/internal/engine"
	"pacman/internal/tuple"
)

// Transfer's slices from the paper's Figure 3, expressed as op sets:
//
//	T1 = {op0}            spouse read
//	T2 = {op1,op2,op3,op4} current-account RMWs
//	T3 = {op5,op6}        saving RMW
var (
	sliceT1 = OpSetFilter{0: true}
	sliceT2 = OpSetFilter{1: true, 2: true, 3: true, 4: true}
	sliceT3 = OpSetFilter{5: true, 6: true}
)

func seedTransferState(t *testing.T, db *engine.Database) {
	t.Helper()
	seedAccount(db.Table("Family"), 1, tuple.I(1), tuple.I(2))
	seedAccount(db.Table("Current"), 1, tuple.I(1), tuple.I(1000))
	seedAccount(db.Table("Current"), 2, tuple.I(2), tuple.I(500))
	seedAccount(db.Table("Saving"), 1, tuple.I(1), tuple.I(50))
}

// TestPieceExecutionEquivalence runs Transfer as three pieces (in GDG
// order) and checks the final state matches whole-procedure execution.
func TestPieceExecutionEquivalence(t *testing.T) {
	run := func(t *testing.T, piecewise bool) (int64, int64, int64) {
		db := bankDB(t)
		c, err := Compile(db, transferProc(), 0)
		if err != nil {
			t.Fatal(err)
		}
		seedTransferState(t, db)
		ex := &directExec{ts: engine.MakeTS(1, 0)}
		args := Args{A(tuple.I(1)), A(tuple.I(100))}
		if piecewise {
			in, err := c.NewInstance(args)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []Filter{sliceT1, sliceT2, sliceT3} {
				if err := in.ExecutePiece(f, ex); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if err := c.Execute(args, ex); err != nil {
				t.Fatal(err)
			}
		}
		return currentVal(t, db.Table("Current"), 1),
			currentVal(t, db.Table("Current"), 2),
			currentVal(t, db.Table("Saving"), 1)
	}
	s1, d1, b1 := run(t, false)
	s2, d2, b2 := run(t, true)
	if s1 != s2 || d1 != d2 || b1 != b2 {
		t.Errorf("piecewise (%d,%d,%d) != whole (%d,%d,%d)", s2, d2, b2, s1, d1, b1)
	}
	if s1 != 900 || d1 != 600 || b1 != 51 {
		t.Errorf("unexpected final state (%d,%d,%d)", s1, d1, b1)
	}
}

// TestPieceSharedRegisters verifies that a value read by T1 (dst) reaches
// T2's key expression through the shared register file.
func TestPieceSharedRegisters(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, transferProc(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seedTransferState(t, db)
	ex := &directExec{ts: engine.MakeTS(1, 0)}
	in, err := c.NewInstance(Args{A(tuple.I(1)), A(tuple.I(100))})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecutePiece(sliceT1, ex); err != nil {
		t.Fatal(err)
	}
	// After T1, T2's dry walk can resolve the dst key (account 2).
	acc, opaque := in.DryWalk(sliceT2)
	if opaque {
		t.Fatal("T2 dry walk opaque after T1 executed")
	}
	var keys []uint64
	for _, a := range acc {
		if a.Table.Name() == "Current" {
			keys = append(keys, a.Key)
		}
	}
	if len(acc) != 4 || len(keys) != 4 {
		t.Fatalf("accesses = %+v", acc)
	}
	// Ops 1,2 hit src (1); ops 3,4 hit dst (2).
	if keys[0] != 1 || keys[1] != 1 || keys[2] != 2 || keys[3] != 2 {
		t.Errorf("keys = %v, want [1 1 2 2]", keys)
	}
	// Reads and writes classified correctly.
	if acc[0].Write || !acc[1].Write || acc[2].Write || !acc[3].Write {
		t.Errorf("write flags wrong: %+v", acc)
	}
}

// TestPieceRereadRegister: two pieces read into the same register (registers
// are reused by name); a third piece sees the later value, as whole
// execution does, and the first piece's published value stays intact.
func TestPieceRereadRegister(t *testing.T) {
	p := &Procedure{
		Name: "Reread",
		Body: []Stmt{
			Read("x", "Current", CI(1), "Value"),
			Read("x", "Current", CI(2), "Value"),
			Write("Saving", CI(1), Set("Value", V("x"))),
		},
	}
	run := func(piecewise bool) (int64, *Instance) {
		db := bankDB(t)
		c, err := Compile(db, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		seedTransferState(t, db)
		ex := &directExec{ts: engine.MakeTS(1, 0)}
		var in *Instance
		if piecewise {
			if in, err = c.NewInstance(Args{}); err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 3; op++ {
				if err := in.ExecutePiece(OpSetFilter{op: true}, ex); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := c.Execute(Args{}, ex); err != nil {
			t.Fatal(err)
		}
		return currentVal(t, db.Table("Saving"), 1), in
	}
	whole, _ := run(false)
	piecewise, in := run(true)
	if whole != 500 || piecewise != whole {
		t.Errorf("Saving[1] = %d piecewise, %d whole, want 500", piecewise, whole)
	}
	// The slot's inline value is the first read's; the second published a
	// copy.
	s := &in.shared[in.layout.base[0]]
	if s.v.Int() != 1000 || s.p.Load().Int() != 500 {
		t.Errorf("slot inline %v, published %v; want 1000 and 500", s.v, *s.p.Load())
	}
}

// TestDryWalkOpaqueBeforePredecessor: without T1's read, T2's guard (dst !=
// 0) is undecidable and the key for the dst accesses is unknown, so the dry
// walk must report opaque.
func TestDryWalkOpaqueBeforePredecessor(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, transferProc(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.NewInstance(Args{A(tuple.I(1)), A(tuple.I(100))})
	if err != nil {
		t.Fatal(err)
	}
	// T2 includes op0? No — op0 belongs to T1 and has not run. Its shared
	// slot is NULL but NOT poisoned, so the guard evaluates dst==NULL(0) and
	// conservatively skips. That would be WRONG semantics if we trusted it —
	// which is why the scheduler must never dry-walk a piece before its
	// predecessors complete. This test documents the self-inflicted case:
	// a piece containing its own guard read.
	selfGuard := OpSetFilter{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true}
	_, opaque := in.DryWalk(selfGuard)
	if !opaque {
		t.Error("dry walk with own guarded read must be opaque")
	}
}

// TestDryWalkOwnKeyOpaque: a key derived from a read in the same piece makes
// the piece opaque.
func TestDryWalkOwnKeyOpaque(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "Chase",
		Params: []ParamDef{P("k")},
		Body: []Stmt{
			Read("ptr", "Current", Pm("k"), "Value"),
			Write("Current", V("ptr"), Set("Value", CI(1))),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.NewInstance(Args{A(tuple.I(5))})
	_, opaque := in.DryWalk(OpSetFilter{0: true, 1: true})
	if !opaque {
		t.Error("pointer-chasing piece must be opaque")
	}
	// But the read alone is fine (key from params).
	acc, opaque := in.DryWalk(OpSetFilter{0: true})
	if opaque || len(acc) != 1 || acc[0].Key != 5 {
		t.Errorf("read-only dry walk: opaque=%v acc=%+v", opaque, acc)
	}
}

// TestDryWalkLoopInstances: loop iterations yield distinct access instances
// with distinct iteration keys.
func TestDryWalkLoopInstances(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "Batch",
		Params: []ParamDef{P("accts")},
		Body: []Stmt{
			ForEach("a", "accts",
				Read("bal", "Current", V("a"), "Value"),
				Write("Current", V("a"), Set("Value", Add(V("bal"), CI(1)))),
			),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.NewInstance(Args{L(tuple.I(10), tuple.I(20), tuple.I(30))})
	acc, opaque := in.DryWalk(OpSetFilter{0: true, 1: true})
	if opaque {
		t.Fatal("loop dry walk opaque")
	}
	if len(acc) != 6 {
		t.Fatalf("accesses = %d, want 6", len(acc))
	}
	wantKeys := []uint64{10, 10, 20, 20, 30, 30}
	for i, a := range acc {
		if a.Key != wantKeys[i] {
			t.Errorf("access %d key = %d, want %d", i, a.Key, wantKeys[i])
		}
	}
	if acc[0].Iter != 0 || acc[2].Iter != 1 || acc[4].Iter != 2 {
		t.Errorf("iteration keys wrong: %+v", acc)
	}
}

// TestInstFilterPieceExecution: executing individual loop iterations via
// an instance filter touches only those iterations.
func TestInstFilterPieceExecution(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "Batch",
		Params: []ParamDef{P("accts")},
		Body: []Stmt{
			ForEach("a", "accts",
				Read("bal", "Current", V("a"), "Value"),
				Write("Current", V("a"), Set("Value", Add(V("bal"), CI(1)))),
			),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	current := db.Table("Current")
	for _, k := range []uint64{10, 20, 30} {
		seedAccount(current, k, tuple.I(int64(k)), tuple.I(100))
	}
	in, _ := c.NewInstance(Args{L(tuple.I(10), tuple.I(20), tuple.I(30))})
	ex := &directExec{ts: engine.MakeTS(1, 0)}
	// Execute only iteration 1 (account 20).
	var f InstSliceFilter
	f.AddInst(0, 1)
	f.AddInst(1, 1)
	if err := in.ExecutePiece(&f, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, current, 20); got != 101 {
		t.Errorf("acct 20 = %d", got)
	}
	if got := currentVal(t, current, 10); got != 100 {
		t.Errorf("acct 10 touched: %d", got)
	}
	// Execute the remaining iterations.
	var f2 InstSliceFilter
	for _, iter := range []uint64{0, 2} {
		f2.AddInst(0, iter)
		f2.AddInst(1, iter)
	}
	if err := in.ExecutePiece(&f2, ex); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{10, 20, 30} {
		if got := currentVal(t, current, k); got != 101 {
			t.Errorf("acct %d = %d", k, got)
		}
	}
}
