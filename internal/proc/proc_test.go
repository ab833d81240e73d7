package proc

import (
	"reflect"
	"sync"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/tuple"
)

func TestCompileTransfer(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, transferProc(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "Transfer" || c.ID() != 0 || c.NumParams() != 2 {
		t.Error("basic metadata wrong")
	}
	if c.NumOps() != 7 {
		t.Fatalf("ops = %d, want 7 (Figure 2 lines 2,4,5,6,7,8,9)", c.NumOps())
	}
	// Op 0: the spouse read; everything else is guarded by its result, so
	// every other op must flow-depend on op 0.
	for i := 1; i < 7; i++ {
		op := c.Op(i)
		found := false
		for _, d := range op.FlowDeps {
			if d == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("op %d (%s %s) missing control dependency on op 0; deps=%v",
				i, op.Kind, op.Table, op.FlowDeps)
		}
	}
	// Line 5 (op 2, write Current src) flow-depends on line 4 (op 1, read
	// srcVal) — the define-use relation from the paper's example.
	op2 := c.Op(2)
	if op2.Kind != OpWrite || op2.Table != "Current" {
		t.Fatalf("op 2 = %s %s", op2.Kind, op2.Table)
	}
	hasDep := func(deps []int, want int) bool {
		for _, d := range deps {
			if d == want {
				return true
			}
		}
		return false
	}
	if !hasDep(op2.FlowDeps, 1) {
		t.Errorf("write Current(src) must depend on read srcVal; deps=%v", op2.FlowDeps)
	}
	// Line 7 (op 4, write Current dst) depends on read dstVal (op 3) and,
	// through its key, on the spouse read (op 0) — the foreign-key pattern.
	op4 := c.Op(4)
	if !hasDep(op4.FlowDeps, 3) || !hasDep(op4.FlowDeps, 0) {
		t.Errorf("write Current(dst) deps=%v, want {0,3,...}", op4.FlowDeps)
	}
	// The saving write (op 6) depends on the bonus read (op 5) but not on
	// the current-account reads.
	op6 := c.Op(6)
	if !hasDep(op6.FlowDeps, 5) {
		t.Errorf("write Saving deps=%v, want bonus read 5", op6.FlowDeps)
	}
	if hasDep(op6.FlowDeps, 1) || hasDep(op6.FlowDeps, 3) {
		t.Errorf("write Saving must not depend on Current reads; deps=%v", op6.FlowDeps)
	}
}

func TestCompileErrors(t *testing.T) {
	db := bankDB(t)
	cases := []struct {
		name string
		p    *Procedure
	}{
		{"unknown table", &Procedure{Name: "x", Body: []Stmt{Read("v", "Nope", CI(1), "id")}}},
		{"unknown column", &Procedure{Name: "x", Body: []Stmt{Read("v", "Current", CI(1), "nope")}}},
		{"unknown param", &Procedure{Name: "x", Body: []Stmt{Read("v", "Current", Pm("missing"), "id")}}},
		{"undefined var", &Procedure{Name: "x", Body: []Stmt{Write("Current", V("ghost"), Set("Value", CI(1)))}}},
		{"dup param", &Procedure{Name: "x", Params: []ParamDef{P("a"), P("a")}}},
		{"empty param", &Procedure{Name: "x", Params: []ParamDef{P("")}}},
		{"bad loop list", &Procedure{Name: "x", Body: []Stmt{ForEach("v", "nolist")}}},
		{"insert arity", &Procedure{Name: "x", Body: []Stmt{Insert("Current", CI(1), CI(1))}}},
	}
	for _, c := range cases {
		if _, err := Compile(db, c.p, 0); err == nil {
			t.Errorf("%s: compile succeeded", c.name)
		}
	}
}

func TestExecuteTransfer(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, transferProc(), 0)
	if err != nil {
		t.Fatal(err)
	}
	family, current, saving := db.Table("Family"), db.Table("Current"), db.Table("Saving")
	seedAccount(family, 1, tuple.I(1), tuple.I(2)) // 1's spouse is 2
	seedAccount(family, 3, tuple.I(3), tuple.I(0)) // 3 has no spouse
	seedAccount(current, 1, tuple.I(1), tuple.I(1000))
	seedAccount(current, 2, tuple.I(2), tuple.I(500))
	seedAccount(current, 3, tuple.I(3), tuple.I(777))
	seedAccount(saving, 1, tuple.I(1), tuple.I(50))

	ex := &directExec{ts: engine.MakeTS(1, 0)}
	if err := c.Execute(Args{A(tuple.I(1)), A(tuple.I(100))}, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, current, 1); got != 900 {
		t.Errorf("src balance = %d", got)
	}
	if got := currentVal(t, current, 2); got != 600 {
		t.Errorf("dst balance = %d", got)
	}
	if got := currentVal(t, saving, 1); got != 51 {
		t.Errorf("saving bonus = %d", got)
	}
	// No spouse: the guard blocks all transfers.
	if err := c.Execute(Args{A(tuple.I(3)), A(tuple.I(100))}, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, current, 3); got != 777 {
		t.Errorf("guard failed to block: balance = %d", got)
	}
}

func TestExecuteDepositGuards(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, depositProc(), 1)
	if err != nil {
		t.Fatal(err)
	}
	current, saving, stats := db.Table("Current"), db.Table("Saving"), db.Table("Stats")
	seedAccount(current, 1, tuple.I(1), tuple.I(9000))
	seedAccount(saving, 1, tuple.I(1), tuple.I(0))
	seedAccount(stats, 65, tuple.I(65), tuple.I(0))

	ex := &directExec{ts: engine.MakeTS(1, 0)}
	// Small deposit: no bonus, no stats bump.
	if err := c.Execute(Args{A(tuple.I(1)), A(tuple.I(100)), A(tuple.I(65))}, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, current, 1); got != 9100 {
		t.Errorf("balance = %d", got)
	}
	if got := currentVal(t, stats, 65); got != 0 {
		t.Errorf("stats bumped on small deposit: %d", got)
	}
	// Large deposit crosses 10000: bonus and stats fire.
	if err := c.Execute(Args{A(tuple.I(1)), A(tuple.I(2000)), A(tuple.I(65))}, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, current, 1); got != 11100 {
		t.Errorf("balance = %d", got)
	}
	if got := currentVal(t, stats, 65); got != 1 {
		t.Errorf("stats = %d", got)
	}
}

func TestExecuteAbort(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "MaybeAbort",
		Params: []ParamDef{P("flag")},
		Body: []Stmt{
			If(Eq(Pm("flag"), CI(1)), Abort()),
			Write("Current", CI(9), Set("Value", CI(1))),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := &directExec{}
	if err := c.Execute(Args{A(tuple.I(1))}, ex); err != ErrAborted {
		t.Errorf("want ErrAborted, got %v", err)
	}
	if _, ok := db.Table("Current").GetRow(9); ok {
		t.Error("write after abort executed")
	}
	if err := c.Execute(Args{A(tuple.I(0))}, ex); err != nil {
		t.Errorf("non-aborting run failed: %v", err)
	}
}

func TestForEachLoop(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "BatchDeposit",
		Params: []ParamDef{P("accts"), P("amounts")},
		Body: []Stmt{
			AssignStmt{Dst: "total", Val: CI(0)},
			ForEachIdx("i", "acct", "accts",
				Read("bal", "Current", V("acct"), "Value"),
				Write("Current", V("acct"), Set("Value", Add(V("bal"), CI(10)))),
				AssignStmt{Dst: "total", Val: Add(V("total"), V("bal"))},
			),
			Write("Stats", CI(1), Set("Count", V("total"))),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	current := db.Table("Current")
	for i := uint64(1); i <= 3; i++ {
		seedAccount(current, i, tuple.I(int64(i)), tuple.I(int64(i*100)))
	}
	ex := &directExec{}
	args := Args{L(tuple.I(1), tuple.I(2), tuple.I(3)), L()}
	if err := c.Execute(args, ex); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if got := currentVal(t, current, i); got != int64(i*100+10) {
			t.Errorf("acct %d = %d", i, got)
		}
	}
	// Accumulator: 100+200+300.
	if got := currentVal(t, db.Table("Stats"), 1); got != 600 {
		t.Errorf("total = %d", got)
	}
	// Ops inside the loop carry the loop in their metadata.
	readOp := c.Op(0)
	if len(readOp.Loops) != 1 {
		t.Errorf("loop read has loops %v", readOp.Loops)
	}
	// The final write's flow deps include the in-loop read (accumulator).
	finalOp := c.Op(2)
	found := false
	for _, d := range finalOp.FlowDeps {
		if d == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("final write deps = %v, want read op 0", finalOp.FlowDeps)
	}
}

func TestInsertDelete(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "Churn",
		Params: []ParamDef{P("k")},
		Body: []Stmt{
			Insert("Current", Pm("k"), Pm("k"), CI(42)),
			Read("v", "Current", Pm("k"), "Value"),
			Delete("Current", Pm("k")),
			Write("Stats", CI(7), Set("Count", V("v"))),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := &directExec{}
	if err := c.Execute(Args{A(tuple.I(5))}, ex); err != nil {
		t.Fatal(err)
	}
	r, ok := db.Table("Current").GetRow(5)
	if !ok || r.LatestData() != nil {
		t.Error("row should exist as tombstone")
	}
	if got := currentVal(t, db.Table("Stats"), 7); got != 42 {
		t.Errorf("read-between = %d", got)
	}
	// Ops: insert, read, delete, write — kinds and modification flags.
	wantKinds := []OpKind{OpInsert, OpRead, OpDelete, OpWrite}
	for i, k := range wantKinds {
		if c.Op(i).Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, c.Op(i).Kind, k)
		}
	}
	if OpRead.IsModification() || !OpInsert.IsModification() || !OpDelete.IsModification() {
		t.Error("IsModification misclassifies")
	}
}

func TestReadMissingRowIsNull(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "ReadGhost",
		Params: []ParamDef{P("k")},
		Body: []Stmt{
			Read("v", "Current", Pm("k"), "Value"),
			If(Eq(V("v"), C(tuple.Null())),
				Write("Stats", CI(1), Set("Count", CI(111))),
			),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := &directExec{}
	if err := c.Execute(Args{A(tuple.I(404))}, ex); err != nil {
		t.Fatal(err)
	}
	if got := currentVal(t, db.Table("Stats"), 1); got != 111 {
		t.Error("missing read did not yield NULL")
	}
}

func TestBinOps(t *testing.T) {
	cases := []struct {
		op   BinOp
		l, r tuple.Value
		want tuple.Value
	}{
		{OpAdd, tuple.I(2), tuple.I(3), tuple.I(5)},
		{OpAdd, tuple.F(1.5), tuple.I(1), tuple.F(2.5)},
		{OpAdd, tuple.S("a"), tuple.S("b"), tuple.S("ab")},
		{OpSub, tuple.I(5), tuple.I(3), tuple.I(2)},
		{OpMul, tuple.I(4), tuple.F(0.5), tuple.F(2)},
		{OpDiv, tuple.I(7), tuple.I(2), tuple.I(3)},
		{OpDiv, tuple.I(7), tuple.I(0), tuple.Null()},
		{OpDiv, tuple.F(1), tuple.F(0), tuple.Null()},
		{OpMod, tuple.I(7), tuple.I(3), tuple.I(1)},
		{OpMod, tuple.I(7), tuple.I(0), tuple.Null()},
		{OpEq, tuple.I(1), tuple.I(1), tuple.Bool(true)},
		{OpNe, tuple.I(1), tuple.I(2), tuple.Bool(true)},
		{OpLt, tuple.I(1), tuple.I(2), tuple.Bool(true)},
		{OpLe, tuple.I(2), tuple.I(2), tuple.Bool(true)},
		{OpGt, tuple.S("b"), tuple.S("a"), tuple.Bool(true)},
		{OpGe, tuple.I(1), tuple.I(2), tuple.Bool(false)},
		{OpAnd, tuple.I(1), tuple.I(0), tuple.Bool(false)},
		{OpOr, tuple.I(0), tuple.I(1), tuple.Bool(true)},
	}
	for _, c := range cases {
		got := applyBin(c.op, c.l, c.r)
		if !got.Equal(c.want) {
			t.Errorf("op %d: %v ? %v = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

func TestArgsCodec(t *testing.T) {
	cases := []Args{
		{},
		{A(tuple.I(1))},
		{A(tuple.I(1)), L(tuple.S("x"), tuple.S("y")), L()},
		{L(tuple.F(3.14), tuple.Null(), tuple.I(-9))},
	}
	for i, args := range cases {
		buf := AppendArgs(nil, args)
		got, n, err := DecodeArgs(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("case %d: decode err=%v n=%d", i, err, n)
		}
		if len(got) != len(args) {
			t.Fatalf("case %d: arity %d != %d", i, len(got), len(args))
		}
		for p := range args {
			if len(got[p]) != len(args[p]) {
				t.Fatalf("case %d param %d: length mismatch", i, p)
			}
			for j := range args[p] {
				if !got[p][j].Equal(args[p][j]) {
					t.Errorf("case %d: value mismatch at %d/%d", i, p, j)
				}
			}
		}
	}
	if _, _, err := DecodeArgs([]byte{9}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, _, err := DecodeArgs([]byte{1, 0, 2, 0, byte(255)}); err == nil {
		t.Error("corrupt value accepted")
	}
}

func TestRegistry(t *testing.T) {
	db := bankDB(t)
	r := NewRegistry()
	tr := r.MustRegister(db, transferProc())
	dp := r.MustRegister(db, depositProc())
	if tr.ID() != 0 || dp.ID() != 1 {
		t.Error("IDs not assigned in order")
	}
	if r.ByName("Transfer") != tr || r.ByID(1) != dp || r.Len() != 2 {
		t.Error("lookups broken")
	}
	if r.ByID(5) != nil || r.ByID(-1) != nil || r.ByName("zzz") != nil {
		t.Error("missing lookups should return nil")
	}
	if len(r.All()) != 2 {
		t.Error("All broken")
	}
	if _, err := r.Register(db, transferProc()); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestLayoutMultiplicity(t *testing.T) {
	db := bankDB(t)
	p := &Procedure{
		Name:   "Loopy",
		Params: []ParamDef{P("outer"), P("inner")},
		Body: []Stmt{
			Read("top", "Current", CI(1), "Value"),
			ForEach("o", "outer",
				Read("a", "Current", V("o"), "Value"),
				ForEach("x", "inner",
					Read("b", "Current", V("x"), "Value"),
				),
			),
		},
	}
	c, err := Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	args := Args{L(tuple.I(1), tuple.I(2), tuple.I(3)), L(tuple.I(4), tuple.I(5))}
	l, err := c.NewLayout(args)
	if err != nil {
		t.Fatal(err)
	}
	// Registers: top(1) + o(3) + a(3) + x(3*2) + b(3*2) = 1+3+3+6+6 = 19.
	if l.size != 19 {
		t.Errorf("layout size = %d, want 19", l.size)
	}
	if _, err := c.NewLayout(Args{L()}); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestLayoutCachePerShape: invocations with the same trip counts share one
// layout, other shapes get their own, and shapes past the cache bound or
// too long for the key are still laid out correctly.
func TestLayoutCachePerShape(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, &Procedure{
		Name:   "Loop",
		Params: []ParamDef{P("ids")},
		Body:   []Stmt{ForEach("id", "ids", Read("v", "Current", V("id"), "Value"))},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(n int) Args {
		vs := make([]tuple.Value, n)
		for i := range vs {
			vs[i] = tuple.I(int64(i))
		}
		return Args{vs}
	}
	layout := func(n int) *Layout {
		l, err := c.NewLayout(ids(n))
		if err != nil {
			t.Fatal(err)
		}
		// Registers id and v, one slot each per iteration (one for none).
		if want := 2 * max(n, 1); l.size != want {
			t.Fatalf("%d ids: layout size %d, want %d", n, l.size, want)
		}
		return l
	}
	if layout(3) != layout(3) {
		t.Error("same shape, different layouts")
	}
	if layout(3) == layout(4) {
		t.Error("different shapes share a layout")
	}
	// Workers executing concurrently fill the cache concurrently.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2*maxCachedLayouts; n++ {
				if l, err := c.NewLayout(ids(n)); err != nil || l.size != 2*max(n, 1) {
					t.Errorf("%d ids: layout %v, %v", n, l, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(*c.layouts.Load()); got != maxCachedLayouts {
		t.Errorf("cache holds %d shapes, want the bound %d", got, maxCachedLayouts)
	}
	layout(1 << 16) // trip count past the 16-bit key
}

func TestOpInstanceAndFilters(t *testing.T) {
	if OpInstance(3, 0x20001) != uint64(3)<<48|0x20001 {
		t.Error("OpInstance packing wrong")
	}
	f := OpSetFilter{2: true}
	if !f.Include(2, 99) || f.Include(1, 0) {
		t.Error("OpSetFilter broken")
	}
	var inst InstSliceFilter
	inst.AddInst(2, 5)
	if !inst.Include(2, 5) || inst.Include(2, 6) || !inst.IncludeAnyOp([]int{1, 2}) || inst.IncludeAnyOp([]int{1}) {
		t.Error("InstSliceFilter broken")
	}
}

func TestFlowDepsAreSorted(t *testing.T) {
	db := bankDB(t)
	c, err := Compile(db, transferProc(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range c.Ops() {
		if !sortedInts(op.FlowDeps) {
			t.Errorf("op %d deps not sorted: %v", op.ID, op.FlowDeps)
		}
	}
}

func sortedInts(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

func TestOpSetHelpers(t *testing.T) {
	s := opSet{}
	s.add(3, 1, 2)
	o := opSet{}
	o.add(2, 5)
	s.union(o)
	if !reflect.DeepEqual(s.sorted(), []int{1, 2, 3, 5}) {
		t.Errorf("sorted = %v", s.sorted())
	}
}
