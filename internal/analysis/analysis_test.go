package analysis

import (
	"reflect"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// TestBankLDGMatchesPaper asserts the exact decomposition of the paper's
// Figure 3 / Figure 5a: Transfer splits into T1 {spouse read},
// T2 {the four Current ops}, T3 {the two Saving ops} with edges T1->T2 and
// T1->T3.
func TestBankLDGMatchesPaper(t *testing.T) {
	b := workload.NewBank(10)
	g := BuildLDG(b.Transfer)
	if len(g.Slices) != 3 {
		t.Fatalf("Transfer slices = %d, want 3\n%s", len(g.Slices), g)
	}
	want := [][]int{{0}, {1, 2, 3, 4}, {5, 6}}
	for i, s := range g.Slices {
		if !reflect.DeepEqual(s.Ops, want[i]) {
			t.Errorf("T%d ops = %v, want %v", i+1, s.Ops, want[i])
		}
	}
	if !reflect.DeepEqual(g.Succs[0], []int{1, 2}) {
		t.Errorf("T1 succs = %v, want [1 2]", g.Succs[0])
	}
	if len(g.Succs[1]) != 0 || len(g.Succs[2]) != 0 {
		t.Errorf("T2/T3 must have no successors: %v %v", g.Succs[1], g.Succs[2])
	}
	for op, wantSlice := range []int{0, 1, 1, 1, 1, 2, 2} {
		if g.sliceOf[op] != wantSlice {
			t.Errorf("sliceOf[%d] = %d, want %d", op, g.sliceOf[op], wantSlice)
		}
	}
}

// TestBankDepositLDG asserts Figure 5b: D1 {Current RMW}, D2 {Saving RMW},
// D3 {Stats RMW} with D1->D2 and D1->D3.
func TestBankDepositLDG(t *testing.T) {
	b := workload.NewBank(10)
	g := BuildLDG(b.Deposit)
	if len(g.Slices) != 3 {
		t.Fatalf("Deposit slices = %d, want 3\n%s", len(g.Slices), g)
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	for i, s := range g.Slices {
		if !reflect.DeepEqual(s.Ops, want[i]) {
			t.Errorf("D%d ops = %v, want %v", i+1, s.Ops, want[i])
		}
	}
	if !reflect.DeepEqual(g.Succs[0], []int{1, 2}) {
		t.Errorf("D1 succs = %v", g.Succs[0])
	}
}

// TestBankGDGMatchesPaper asserts Figure 5c: four blocks
// Ba{T1}, Bb{T2,D1}, Bc{T3,D2}, Bd{D3}, with edges a->b, a->c, b->c, b->d.
func TestBankGDGMatchesPaper(t *testing.T) {
	b := workload.NewBank(10)
	g := BuildGDG([]*LDG{BuildLDG(b.Transfer), BuildLDG(b.Deposit)})
	if g.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", g.NumBlocks(), g)
	}
	// Transfer is proc 0 (slices T1=0,T2=1,T3=2); Deposit proc 1 (D1..D3).
	wantBlocks := [][]SliceRef{
		{{ProcID: 0, SliceID: 0}},                          // Ba = {T1}
		{{ProcID: 0, SliceID: 1}, {ProcID: 1, SliceID: 0}}, // Bb = {T2, D1}
		{{ProcID: 0, SliceID: 2}, {ProcID: 1, SliceID: 1}}, // Bc = {T3, D2}
		{{ProcID: 1, SliceID: 2}},                          // Bd = {D3}
	}
	for i, want := range wantBlocks {
		if !reflect.DeepEqual(g.Blocks[i].Slices, want) {
			t.Errorf("block %d = %v, want %v\n%s", i, g.Blocks[i].Slices, want, g)
		}
	}
	if !reflect.DeepEqual(g.Succs(0), []int{1, 2}) {
		t.Errorf("B0 succs = %v", g.Succs(0))
	}
	if !reflect.DeepEqual(g.Succs(1), []int{2, 3}) {
		t.Errorf("B1 succs = %v", g.Succs(1))
	}
	if !reflect.DeepEqual(g.Preds(2), []int{0, 1}) {
		t.Errorf("B2 preds = %v", g.Preds(2))
	}
	if !reflect.DeepEqual(g.Preds(3), []int{1}) {
		t.Errorf("B3 preds = %v", g.Preds(3))
	}
}

// TestBankPieces: the per-procedure piece definitions instantiate the right
// op subsets and groups.
func TestBankPieces(t *testing.T) {
	b := workload.NewBank(10)
	g := BuildGDG([]*LDG{BuildLDG(b.Transfer), BuildLDG(b.Deposit)})

	tp := g.PiecesFor(0) // Transfer
	if len(tp) != 3 {
		t.Fatalf("Transfer pieces = %d", len(tp))
	}
	if tp[0].Block != 0 || !reflect.DeepEqual(tp[0].Ops, []int{0}) {
		t.Errorf("piece 0 = block %d ops %v", tp[0].Block, tp[0].Ops)
	}
	if tp[1].Block != 1 || !reflect.DeepEqual(tp[1].Ops, []int{1, 2, 3, 4}) {
		t.Errorf("piece 1 = block %d ops %v", tp[1].Block, tp[1].Ops)
	}
	// T2's groups: {read src, write src} and {read dst, write dst} — the
	// two read-modify-write pairs are separate groups (different key
	// spaces), exactly the paper's Figure 8 parallelism.
	if len(tp[1].Groups) != 2 {
		t.Fatalf("T2 groups = %+v", tp[1].Groups)
	}
	if !reflect.DeepEqual(tp[1].Groups[0].Ops, []int{1, 2}) ||
		!reflect.DeepEqual(tp[1].Groups[1].Ops, []int{3, 4}) {
		t.Errorf("T2 groups = %+v", tp[1].Groups)
	}
	if tp[1].GroupOf[1] != 0 || tp[1].GroupOf[2] != 0 || tp[1].GroupOf[3] != 1 || tp[1].GroupOf[4] != 1 {
		t.Errorf("GroupOf = %v", tp[1].GroupOf)
	}
	// Filters select exactly the piece's ops.
	if !tp[1].Filter.Include(1, 0) || tp[1].Filter.Include(0, 0) {
		t.Error("piece filter wrong")
	}

	dp := g.PiecesFor(1) // Deposit
	if len(dp) != 3 {
		t.Fatalf("Deposit pieces = %d", len(dp))
	}
	if dp[0].Block != 1 || dp[1].Block != 2 || dp[2].Block != 3 {
		t.Errorf("Deposit piece blocks = %d,%d,%d", dp[0].Block, dp[1].Block, dp[2].Block)
	}
}

// TestTableOwners: Current and Saving are owned by the blocks containing
// their writers; Family is never written and has no owner.
func TestTableOwners(t *testing.T) {
	b := workload.NewBank(10)
	g := BuildGDG([]*LDG{BuildLDG(b.Transfer), BuildLDG(b.Deposit)})
	db := b.DB()
	if got := g.TableOwner(db.Table("Current").ID()); got != 1 {
		t.Errorf("Current owner = %d, want 1", got)
	}
	if got := g.TableOwner(db.Table("Saving").ID()); got != 2 {
		t.Errorf("Saving owner = %d, want 2", got)
	}
	if got := g.TableOwner(db.Table("Stats").ID()); got != 3 {
		t.Errorf("Stats owner = %d, want 3", got)
	}
	if got := g.TableOwner(db.Table("Family").ID()); got != -1 {
		t.Errorf("Family owner = %d, want -1", got)
	}
}

// singleProcDB builds a catalog with generic tables for synthetic tests.
func singleProcDB() *engine.Database {
	db := engine.NewDatabase()
	for _, n := range []string{"A", "B", "C", "D"} {
		db.MustAddTable(tuple.MustSchema(n,
			tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
	}
	return db
}

// TestConvexityMerging: a flow dependency within a slice swallows the ops
// between its endpoints (property 2 of the slice definition).
func TestConvexityMerging(t *testing.T) {
	db := singleProcDB()
	// op0: read A; op1: write B; op2: write A (uses op0's value).
	// Data deps put op0 and op2 in one slice; convexity drags op1 in.
	p := &proc.Procedure{
		Name:   "Convex",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Read("v", "A", proc.Pm("k"), "v"),
			proc.Write("B", proc.Pm("k"), proc.Set("v", proc.CI(1))),
			proc.Write("A", proc.Pm("k"), proc.Set("v", proc.V("v"))),
		},
	}
	c, err := proc.Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildLDG(c)
	if len(g.Slices) != 1 {
		t.Fatalf("slices = %d, want 1 (convexity)\n%s", len(g.Slices), g)
	}
	if !reflect.DeepEqual(g.Slices[0].Ops, []int{0, 1, 2}) {
		t.Errorf("slice ops = %v", g.Slices[0].Ops)
	}
}

// TestNoSpuriousMerging: independent single-table accesses stay separate.
func TestNoSpuriousMerging(t *testing.T) {
	db := singleProcDB()
	p := &proc.Procedure{
		Name:   "Indep",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Write("A", proc.Pm("k"), proc.Set("v", proc.CI(1))),
			proc.Write("B", proc.Pm("k"), proc.Set("v", proc.CI(2))),
			proc.Write("C", proc.Pm("k"), proc.Set("v", proc.CI(3))),
		},
	}
	c, err := proc.Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildLDG(c)
	if len(g.Slices) != 3 {
		t.Fatalf("slices = %d, want 3\n%s", len(g.Slices), g)
	}
	for i := range g.Slices {
		if len(g.Succs[i]) != 0 {
			t.Errorf("slice %d has edges %v", i, g.Succs[i])
		}
	}
	// GDG of this single procedure: three independent blocks.
	gdg := BuildGDG([]*LDG{g})
	if gdg.NumBlocks() != 3 {
		t.Fatalf("blocks = %d\n%s", gdg.NumBlocks(), gdg)
	}
}

// TestGDGCycleMerging: two procedures whose cross-table orders oppose force
// their blocks into one (the cycle-breaking step of Algorithm 2).
func TestGDGCycleMerging(t *testing.T) {
	db := singleProcDB()
	// P1: read A then write B using the read (A-slice -> B-slice edge).
	p1 := &proc.Procedure{
		Name:   "AtoB",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Read("v", "A", proc.Pm("k"), "v"),
			proc.Write("A", proc.Pm("k"), proc.Set("v", proc.CI(0))),
			proc.Write("B", proc.Pm("k"), proc.Set("v", proc.V("v"))),
		},
	}
	// P2: read B then write A using the read (B-slice -> A-slice edge).
	p2 := &proc.Procedure{
		Name:   "BtoA",
		Params: []proc.ParamDef{proc.P("k")},
		Body: []proc.Stmt{
			proc.Read("v", "B", proc.Pm("k"), "v"),
			proc.Write("B", proc.Pm("k"), proc.Set("v", proc.CI(0))),
			proc.Write("A", proc.Pm("k"), proc.Set("v", proc.V("v"))),
		},
	}
	c1, err := proc.Compile(db, p1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := proc.Compile(db, p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGDG([]*LDG{BuildLDG(c1), BuildLDG(c2)})
	// A-writers block and B-writers block are mutually dependent -> merged.
	if g.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1 after cycle merge\n%s", g.NumBlocks(), g)
	}
	// Property 4: each procedure's slices inside the block merged into one
	// piece.
	if len(g.PiecesFor(0)) != 1 || len(g.PiecesFor(1)) != 1 {
		t.Errorf("pieces = %d,%d, want 1,1", len(g.PiecesFor(0)), len(g.PiecesFor(1)))
	}
	if !reflect.DeepEqual(g.PiecesFor(0)[0].Ops, []int{0, 1, 2}) {
		t.Errorf("merged piece ops = %v", g.PiecesFor(0)[0].Ops)
	}
}

// TestAnalysisInvariants checks structural invariants over all workload
// procedures: slices partition ops, graphs are acyclic, data-dependent
// slices share a block.
func TestAnalysisInvariants(t *testing.T) {
	b := workload.NewBank(10)
	ldgs := []*LDG{BuildLDG(b.Transfer), BuildLDG(b.Deposit)}
	for _, g := range ldgs {
		assertLDGInvariants(t, g)
	}
	g := BuildGDG(ldgs)
	assertGDGInvariants(t, g, ldgs)
}

func assertLDGInvariants(t *testing.T, g *LDG) {
	t.Helper()
	seen := make(map[int]bool)
	for _, s := range g.Slices {
		for _, op := range s.Ops {
			if seen[op] {
				t.Errorf("%s: op %d in two slices", g.Proc.Name(), op)
			}
			seen[op] = true
		}
	}
	if len(seen) != g.Proc.NumOps() {
		t.Errorf("%s: slices cover %d of %d ops", g.Proc.Name(), len(seen), g.Proc.NumOps())
	}
	// Acyclic: DFS from every node must not revisit the stack.
	if hasCycle(len(g.Slices), func(i int) []int { return g.Succs[i] }) {
		t.Errorf("%s: LDG has a cycle", g.Proc.Name())
	}
	// Data-dependent ops share a slice.
	ops := g.Proc.Ops()
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			if ops[i].TableID == ops[j].TableID &&
				(ops[i].Kind.IsModification() || ops[j].Kind.IsModification()) {
				if g.sliceOf[i] != g.sliceOf[j] {
					t.Errorf("%s: data-dependent ops %d,%d in slices %d,%d",
						g.Proc.Name(), i, j, g.sliceOf[i], g.sliceOf[j])
				}
			}
		}
	}
}

func assertGDGInvariants(t *testing.T, g *GDG, ldgs []*LDG) {
	t.Helper()
	// Every slice in exactly one block.
	count := make(map[SliceRef]int)
	for _, b := range g.Blocks {
		for _, ref := range b.Slices {
			count[ref]++
		}
	}
	for pi, l := range ldgs {
		for _, s := range l.Slices {
			ref := SliceRef{ProcID: pi, SliceID: s.ID}
			if count[ref] != 1 {
				t.Errorf("slice %v appears %d times", ref, count[ref])
			}
		}
	}
	// Acyclic and topologically ordered (edges go low -> high).
	if hasCycle(g.NumBlocks(), g.Succs) {
		t.Error("GDG has a cycle")
	}
	for b := 0; b < g.NumBlocks(); b++ {
		for _, s := range g.Succs(b) {
			if s <= b {
				t.Errorf("edge %d -> %d violates topological numbering", b, s)
			}
		}
		for _, p := range g.Preds(b) {
			if p >= b {
				t.Errorf("pred %d of %d violates topological numbering", p, b)
			}
		}
	}
}

func hasCycle(n int, succs func(int) []int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	var visit func(int) bool
	visit = func(v int) bool {
		color[v] = gray
		for _, w := range succs(v) {
			if color[w] == gray {
				return true
			}
			if color[w] == white && visit(w) {
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == white && visit(v) {
			return true
		}
	}
	return false
}

// TestLoopGroupDepth: groups spanning in-loop and out-of-loop ops take the
// common (shallower) depth.
func TestLoopGroupDepth(t *testing.T) {
	db := singleProcDB()
	p := &proc.Procedure{
		Name:   "LoopGroup",
		Params: []proc.ParamDef{proc.P("ks")},
		Body: []proc.Stmt{
			proc.Read("base", "A", proc.CI(1), "v"),
			proc.ForEach("k", "ks",
				proc.Write("A", proc.V("k"), proc.Set("v", proc.V("base"))),
			),
		},
	}
	c, err := proc.Compile(db, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGDG([]*LDG{BuildLDG(c)})
	pieces := g.PiecesFor(0)
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	// read(A) and write(A) are data-dependent -> one slice; flow dep
	// connects them -> one group at common depth 0.
	if len(pieces[0].Groups) != 1 {
		t.Fatalf("groups = %+v", pieces[0].Groups)
	}
	if pieces[0].Groups[0].CommonDepth != 0 {
		t.Errorf("common depth = %d, want 0", pieces[0].Groups[0].CommonDepth)
	}
}
