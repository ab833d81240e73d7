package proc

import (
	"fmt"
	"sync/atomic"

	"pacman/internal/engine"
	"pacman/internal/tuple"
)

// OpKind classifies a database operation.
type OpKind uint8

// Operation kinds. Write, Insert, and Delete are modifications; the paper
// treats insert and delete as special writes for dependency purposes.
const (
	OpRead OpKind = iota
	OpWrite
	OpInsert
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "op?"
}

// IsModification reports whether the operation writes the database.
func (k OpKind) IsModification() bool { return k != OpRead }

// OpMeta is the compile-time metadata of one database operation, consumed by
// the static analysis.
type OpMeta struct {
	ID    int
	Kind  OpKind
	Table string
	// TableID is the catalog ID of the accessed table.
	TableID int
	// FlowDeps lists the op IDs this operation flow-depends on: reads whose
	// results feed this op's key, value, or any enclosing guard condition
	// (define-use and control relations, Section 4.1.1), resolved
	// transitively through local assignments.
	FlowDeps []int
	// Loops lists the enclosing loop IDs, outermost first.
	Loops []int
}

// regInfo describes one register (local variable).
type regInfo struct {
	name  string
	loops []int // enclosing loops at the definition site, outermost first
	// definedByRead is the op ID of the read defining this register, or -1.
	definedByRead int
}

type loopInfo struct {
	listParam int // parameter index the loop iterates
}

// opSet is a small set of op IDs.
type opSet map[int]struct{}

func (s opSet) add(ids ...int) {
	for _, id := range ids {
		s[id] = struct{}{}
	}
}

func (s opSet) union(o opSet) {
	for id := range o {
		s[id] = struct{}{}
	}
}

func (s opSet) sorted() []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Compiled is a procedure bound to a catalog: names resolved, registers
// allocated, operations numbered, and dependency metadata extracted.
type Compiled struct {
	src  *Procedure
	id   int
	name string

	params   []ParamDef
	paramIdx map[string]int

	regs     []regInfo
	regIdx   map[string]int
	loops    []loopInfo
	body     []cstmt
	ops      []OpMeta
	maxDepth int

	// layouts caches register-file layouts by loop trip counts, the only
	// input a layout depends on, so the execute and replay paths reuse one
	// immutable Layout per shape instead of recomputing (and reallocating)
	// it per invocation. Copy-on-write; filled lazily by NewLayout.
	layouts atomic.Pointer[map[uint64]*Layout]
}

// Name returns the procedure name.
func (c *Compiled) Name() string { return c.name }

// ID returns the registry-assigned procedure ID.
func (c *Compiled) ID() int { return c.id }

// Source returns the source procedure.
func (c *Compiled) Source() *Procedure { return c.src }

// NumOps returns the number of database operations.
func (c *Compiled) NumOps() int { return len(c.ops) }

// Op returns metadata for operation id.
func (c *Compiled) Op(id int) OpMeta { return c.ops[id] }

// Ops returns metadata for all operations in program order.
func (c *Compiled) Ops() []OpMeta { return c.ops }

// NumParams returns the parameter count.
func (c *Compiled) NumParams() int { return len(c.params) }

// Compiled statement forms. Tables are resolved to *engine.Table, columns to
// indexes, variables to register IDs, parameters to positions.

type cstmt interface{ isCStmt() }

type cRead struct {
	op    int
	dst   int // register
	table *engine.Table
	key   cexpr
	col   int
}

type cset struct {
	col int
	val cexpr
}

type cWrite struct {
	op    int
	table *engine.Table
	key   cexpr
	sets  []cset
}

type cInsert struct {
	op    int
	table *engine.Table
	key   cexpr
	vals  []cexpr
}

type cDelete struct {
	op    int
	table *engine.Table
	key   cexpr
}

type cAssign struct {
	dst int
	val cexpr
}

type cIf struct {
	cond      cexpr
	then, els []cstmt
	// scope summarizes the subtree so filtered walks can skip it wholesale.
	scope subtreeScope
}

type cForEach struct {
	loop   int
	list   int // parameter index
	idxReg int // -1 if unused
	valReg int
	body   []cstmt
	scope  subtreeScope
}

// subtreeScope summarizes an If/ForEach subtree for the walker's skipping
// optimization: a filtered walk may skip the whole subtree when the filter
// selects none of its operations AND no register defined inside is used
// outside (escapes == false). Skipping then cannot change any value or
// operation the walk is responsible for.
type subtreeScope struct {
	ops     []int
	escapes bool
}

type cAbort struct{}

func (cRead) isCStmt()    {}
func (cWrite) isCStmt()   {}
func (cInsert) isCStmt()  {}
func (cDelete) isCStmt()  {}
func (cAssign) isCStmt()  {}
func (cIf) isCStmt()      {}
func (cForEach) isCStmt() {}
func (cAbort) isCStmt()   {}

// Compiled expressions.

type cexpr interface{ isCExpr() }

type ceConst struct{ v tuple.Value }
type ceParam struct{ idx int }
type ceReg struct{ reg int }
type ceBin struct {
	op   BinOp
	l, r cexpr
}
type ceNot struct{ e cexpr }

func (ceConst) isCExpr() {}
func (ceParam) isCExpr() {}
func (ceReg) isCExpr()   {}
func (ceBin) isCExpr()   {}
func (ceNot) isCExpr()   {}

// compiler carries the state of one Compile run.
type compiler struct {
	c  *Compiled
	db *engine.Database
	// regSources maps each register to the set of read ops its value
	// transitively derives from.
	regSources []opSet
	err        error
}

// Compile binds p against the catalog and extracts dependency metadata.
// The id becomes the procedure's identifier in command log records, so it
// must be stable across the logging run and recovery (the Registry assigns
// registration order).
func Compile(db *engine.Database, p *Procedure, id int) (*Compiled, error) {
	c := &Compiled{
		src:      p,
		id:       id,
		name:     p.Name,
		params:   append([]ParamDef(nil), p.Params...),
		paramIdx: make(map[string]int, len(p.Params)),
		regIdx:   make(map[string]int),
	}
	for i, pd := range p.Params {
		if pd.Name == "" {
			return nil, fmt.Errorf("proc %q: parameter %d has empty name", p.Name, i)
		}
		if _, dup := c.paramIdx[pd.Name]; dup {
			return nil, fmt.Errorf("proc %q: duplicate parameter %q", p.Name, pd.Name)
		}
		c.paramIdx[pd.Name] = i
	}
	cp := &compiler{c: c, db: db}
	c.body = cp.stmts(p.Body, nil, opSet{})
	if cp.err != nil {
		return nil, cp.err
	}
	finalizeScopes(c.body, countRegUses(c.body, len(c.regs)))
	return c, nil
}

func (cp *compiler) fail(format string, args ...any) {
	if cp.err == nil {
		cp.err = fmt.Errorf("proc %q: %s", cp.c.name, fmt.Sprintf(format, args...))
	}
}

func (cp *compiler) table(name string) *engine.Table {
	t := cp.db.Table(name)
	if t == nil {
		cp.fail("unknown table %q", name)
	}
	return t
}

func (cp *compiler) colIndex(t *engine.Table, col string) int {
	if t == nil {
		return 0
	}
	i := t.Schema().ColIndex(col)
	if i < 0 {
		cp.fail("table %q has no column %q", t.Name(), col)
	}
	return i
}

// defineReg allocates (or reuses) the register for name. The loop context of
// the first definition determines the register's iteration multiplicity.
func (cp *compiler) defineReg(name string, loops []int, byRead int) int {
	if id, ok := cp.c.regIdx[name]; ok {
		return id
	}
	id := len(cp.c.regs)
	cp.c.regIdx[name] = id
	cp.c.regs = append(cp.c.regs, regInfo{
		name:          name,
		loops:         append([]int(nil), loops...),
		definedByRead: byRead,
	})
	cp.regSources = append(cp.regSources, opSet{})
	return id
}

// expr compiles e, accumulating the read ops it depends on into sources.
func (cp *compiler) expr(e Expr, sources opSet) cexpr {
	switch e := e.(type) {
	case ConstExpr:
		return ceConst{v: e.V}
	case ParamExpr:
		idx, ok := cp.c.paramIdx[e.Name]
		if !ok {
			cp.fail("unknown parameter %q", e.Name)
			return ceConst{}
		}
		return ceParam{idx: idx}
	case VarExpr:
		id, ok := cp.c.regIdx[e.Name]
		if !ok {
			cp.fail("use of undefined variable %q", e.Name)
			return ceConst{}
		}
		sources.union(cp.regSources[id])
		return ceReg{reg: id}
	case BinExpr:
		return ceBin{op: e.Op, l: cp.expr(e.L, sources), r: cp.expr(e.R, sources)}
	case NotExpr:
		return ceNot{e: cp.expr(e.E, sources)}
	default:
		cp.fail("unknown expression type %T", e)
		return ceConst{}
	}
}

// newOp records a database operation and returns its ID.
func (cp *compiler) newOp(kind OpKind, t *engine.Table, loops []int, deps opSet) int {
	id := len(cp.c.ops)
	name, tid := "?", -1
	if t != nil {
		name, tid = t.Name(), t.ID()
	}
	cp.c.ops = append(cp.c.ops, OpMeta{
		ID:       id,
		Kind:     kind,
		Table:    name,
		TableID:  tid,
		FlowDeps: deps.sorted(),
		Loops:    append([]int(nil), loops...),
	})
	return id
}

// stmts compiles a statement list. loops is the enclosing loop stack; guard
// is the set of read ops the enclosing conditions depend on (the control
// relation).
func (cp *compiler) stmts(in []Stmt, loops []int, guard opSet) []cstmt {
	out := make([]cstmt, 0, len(in))
	for _, s := range in {
		if cp.err != nil {
			return out
		}
		switch s := s.(type) {
		case ReadStmt:
			t := cp.table(s.Table)
			deps := opSet{}
			deps.union(guard)
			key := cp.expr(s.Key, deps)
			op := cp.newOp(OpRead, t, loops, deps)
			dst := cp.defineReg(s.Dst, loops, op)
			// The destination register's sources are this read op itself
			// plus everything its key/guards derive from.
			src := opSet{}
			src.add(op)
			src.union(deps)
			cp.regSources[dst] = src
			out = append(out, cRead{op: op, dst: dst, table: t, key: key, col: cp.colIndex(t, s.Col)})
		case WriteStmt:
			t := cp.table(s.Table)
			deps := opSet{}
			deps.union(guard)
			key := cp.expr(s.Key, deps)
			sets := make([]cset, len(s.Sets))
			for i, cs := range s.Sets {
				sets[i] = cset{col: cp.colIndex(t, cs.Col), val: cp.expr(cs.Val, deps)}
			}
			op := cp.newOp(OpWrite, t, loops, deps)
			out = append(out, cWrite{op: op, table: t, key: key, sets: sets})
		case InsertStmt:
			t := cp.table(s.Table)
			deps := opSet{}
			deps.union(guard)
			key := cp.expr(s.Key, deps)
			if t != nil && len(s.Vals) != t.Schema().NumColumns() {
				cp.fail("insert into %q: %d values for %d columns", s.Table, len(s.Vals), t.Schema().NumColumns())
			}
			vals := make([]cexpr, len(s.Vals))
			for i, v := range s.Vals {
				vals[i] = cp.expr(v, deps)
			}
			op := cp.newOp(OpInsert, t, loops, deps)
			out = append(out, cInsert{op: op, table: t, key: key, vals: vals})
		case DeleteStmt:
			t := cp.table(s.Table)
			deps := opSet{}
			deps.union(guard)
			key := cp.expr(s.Key, deps)
			op := cp.newOp(OpDelete, t, loops, deps)
			out = append(out, cDelete{op: op, table: t, key: key})
		case AssignStmt:
			src := opSet{}
			src.union(guard) // value is control-dependent on enclosing guards
			val := cp.expr(s.Val, src)
			dst := cp.defineReg(s.Dst, loops, -1)
			// Accumulators: merge into existing sources rather than replace,
			// so `total = total + x` keeps earlier contributions.
			cp.regSources[dst].union(src)
			out = append(out, cAssign{dst: dst, val: val})
		case IfStmt:
			condSrc := opSet{}
			cond := cp.expr(s.Cond, condSrc)
			inner := opSet{}
			inner.union(guard)
			inner.union(condSrc)
			out = append(out, cIf{
				cond: cond,
				then: cp.stmts(s.Then, loops, inner),
				els:  cp.stmts(s.Else, loops, inner),
			})
		case ForEachStmt:
			listIdx, ok := cp.c.paramIdx[s.List]
			if !ok {
				cp.fail("loop over unknown parameter %q", s.List)
				continue
			}
			loopID := len(cp.c.loops)
			cp.c.loops = append(cp.c.loops, loopInfo{listParam: listIdx})
			innerLoops := append(append([]int(nil), loops...), loopID)
			if len(innerLoops) > cp.c.maxDepth {
				cp.c.maxDepth = len(innerLoops)
			}
			idxReg := -1
			if s.IdxVar != "" {
				idxReg = cp.defineReg(s.IdxVar, innerLoops, -1)
			}
			valReg := cp.defineReg(s.Var, innerLoops, -1)
			out = append(out, cForEach{
				loop:   loopID,
				list:   listIdx,
				idxReg: idxReg,
				valReg: valReg,
				body:   cp.stmts(s.Body, innerLoops, guard),
			})
		case AbortStmt:
			out = append(out, cAbort{})
		default:
			cp.fail("unknown statement type %T", s)
		}
	}
	return out
}

// Registry holds the compiled procedures of an application, addressable by
// name and by the dense IDs recorded in command log entries.
type Registry struct {
	byName map[string]*Compiled
	list   []*Compiled
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Compiled)}
}

// Register compiles p against db and assigns it the next procedure ID.
// Registration order must match between the logging run and recovery, since
// command log entries refer to procedures by ID.
func (r *Registry) Register(db *engine.Database, p *Procedure) (*Compiled, error) {
	if _, dup := r.byName[p.Name]; dup {
		return nil, fmt.Errorf("proc: %q already registered", p.Name)
	}
	c, err := Compile(db, p, len(r.list))
	if err != nil {
		return nil, err
	}
	r.byName[p.Name] = c
	r.list = append(r.list, c)
	return c, nil
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(db *engine.Database, p *Procedure) *Compiled {
	c, err := r.Register(db, p)
	if err != nil {
		panic(err)
	}
	return c
}

// ByName returns the named procedure, or nil.
func (r *Registry) ByName(name string) *Compiled { return r.byName[name] }

// ByID returns the procedure with the given ID, or nil.
func (r *Registry) ByID(id int) *Compiled {
	if id < 0 || id >= len(r.list) {
		return nil
	}
	return r.list[id]
}

// All returns the procedures in registration order.
func (r *Registry) All() []*Compiled { return append([]*Compiled(nil), r.list...) }

// Len returns the number of registered procedures.
func (r *Registry) Len() int { return len(r.list) }
