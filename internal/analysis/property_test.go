package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// genProcedure builds a random but well-formed procedure over nTables
// generic tables: a mix of reads, writes, assigns, and guards, with
// variables used only after definition.
func genProcedure(rng *rand.Rand, name string, nTables int) *proc.Procedure {
	tables := make([]string, nTables)
	for i := range tables {
		tables[i] = fmt.Sprintf("T%d", i)
	}
	var body []proc.Stmt
	var vars []string
	nStmts := 3 + rng.Intn(8)
	varID := 0
	newVar := func() string {
		varID++
		return fmt.Sprintf("%s_v%d", name, varID)
	}
	randExpr := func() proc.Expr {
		if len(vars) > 0 && rng.Intn(2) == 0 {
			return proc.V(vars[rng.Intn(len(vars))])
		}
		if rng.Intn(2) == 0 {
			return proc.Pm("k")
		}
		return proc.CI(int64(rng.Intn(100)))
	}
	emit := func() proc.Stmt {
		tab := tables[rng.Intn(len(tables))]
		switch rng.Intn(4) {
		case 0:
			v := newVar()
			s := proc.Read(v, tab, proc.Pm("k"), "v")
			vars = append(vars, v)
			return s
		case 1:
			return proc.Write(tab, proc.Pm("k"), proc.Set("v", randExpr()))
		case 2:
			v := newVar()
			s := proc.AssignStmt{Dst: v, Val: proc.Add(randExpr(), randExpr())}
			vars = append(vars, v)
			return s
		default:
			return proc.If(proc.Gt(randExpr(), proc.CI(50)),
				proc.Write(tab, proc.Pm("k"), proc.Set("v", randExpr())))
		}
	}
	for i := 0; i < nStmts; i++ {
		body = append(body, emit())
	}
	return &proc.Procedure{
		Name:   name,
		Params: []proc.ParamDef{proc.P("k")},
		Body:   body,
	}
}

// TestRandomProcedureInvariants fuzzes the whole static-analysis pipeline:
// for random procedure sets, the LDG and GDG structural invariants must
// hold (slice partitioning, data-dependence closure, acyclicity,
// topological numbering, single table ownership).
func TestRandomProcedureInvariants(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		db := engine.NewDatabase()
		nTables := 2 + rng.Intn(4)
		for i := 0; i < nTables; i++ {
			db.MustAddTable(tuple.MustSchema(fmt.Sprintf("T%d", i),
				tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
		}
		nProcs := 1 + rng.Intn(3)
		var ldgs []*LDG
		for p := 0; p < nProcs; p++ {
			src := genProcedure(rng, fmt.Sprintf("P%d", p), nTables)
			c, err := proc.Compile(db, src, p)
			if err != nil {
				t.Fatalf("trial %d: compile: %v", trial, err)
			}
			if c.NumOps() == 0 {
				continue
			}
			g := BuildLDG(c)
			assertLDGInvariants(t, g)
			ldgs = append(ldgs, g)
		}
		if len(ldgs) == 0 {
			continue
		}
		gdg := BuildGDG(ldgs)
		assertGDGInvariants(t, gdg, ldgs)
		// Table ownership: every table with a writer has exactly one block,
		// and every writer op of that table lives there.
		for ti := 0; ti < nTables; ti++ {
			owner := gdg.TableOwner(ti)
			for pi, l := range ldgs {
				for _, pd := range gdg.PiecesFor(l.Proc.ID()) {
					for _, opID := range pd.Ops {
						op := l.Proc.Op(opID)
						if op.TableID == ti && op.Kind.IsModification() && pd.Block != owner {
							t.Fatalf("trial %d: proc %d writes table %d in block %d, owner %d",
								trial, pi, ti, pd.Block, owner)
						}
					}
				}
			}
		}
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

// TestRandomGroupInvariants: for random procedures, every piece's groups
// partition its ops, and flow-dependent ops within a piece share a group.
func TestRandomGroupInvariants(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := engine.NewDatabase()
		for i := 0; i < 3; i++ {
			db.MustAddTable(tuple.MustSchema(fmt.Sprintf("T%d", i),
				tuple.Col("id", tuple.KindInt), tuple.Col("v", tuple.KindInt)))
		}
		src := genProcedure(rng, "P", 3)
		c, err := proc.Compile(db, src, 0)
		if err != nil || c.NumOps() == 0 {
			continue
		}
		g := BuildGDG([]*LDG{BuildLDG(c)})
		for _, pd := range g.PiecesFor(0) {
			seen := map[int]bool{}
			for _, grp := range pd.Groups {
				for _, op := range grp.Ops {
					if seen[op] {
						t.Fatalf("trial %d: op %d in two groups", trial, op)
					}
					seen[op] = true
				}
			}
			if len(seen) != len(pd.Ops) {
				t.Fatalf("trial %d: groups cover %d of %d ops", trial, len(seen), len(pd.Ops))
			}
			inPiece := map[int]bool{}
			for _, op := range pd.Ops {
				inPiece[op] = true
			}
			for _, op := range pd.Ops {
				for _, dep := range c.Op(op).FlowDeps {
					if inPiece[dep] && pd.GroupOf[op] != pd.GroupOf[dep] {
						t.Fatalf("trial %d: flow-dependent ops %d->%d in groups %d/%d",
							trial, dep, op, pd.GroupOf[dep], pd.GroupOf[op])
					}
				}
			}
		}
	}
}
