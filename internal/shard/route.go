package shard

import (
	"fmt"
	"sort"

	"pacman/internal/proc"
	"pacman/internal/tuple"
	"pacman/internal/workload"
)

// A Partitioner places one table access on a shard by the table's
// partition attribute. The ok return must depend only on the table name
// (false means the table is replicated on every shard and constrains
// routing not at all); Routing probes it with a zero attribute to learn
// which tables partition.
type Partitioner interface {
	// Shards is the cluster width.
	Shards() int
	// ShardOf places a partition-attribute value of the named table.
	ShardOf(table string, attr int64) (shard int, ok bool)
}

// SmallbankPartitioner partitions Smallbank by contiguous customer ranges:
// every table is keyed by the customer id, so the attribute IS the key.
type SmallbankPartitioner struct {
	NumShards int
	Customers int
}

// Shards implements Partitioner.
func (p SmallbankPartitioner) Shards() int { return p.NumShards }

// ShardOf implements Partitioner via workload.AccountRangeOf.
func (p SmallbankPartitioner) ShardOf(table string, attr int64) (int, bool) {
	switch table {
	case "ACCOUNTS", "SAVINGS", "CHECKING":
		return workload.AccountRangeOf(attr, p.NumShards, p.Customers), true
	}
	return 0, false // PACMAN_2PC and unknowns: no routing constraint
}

// attrRef is one table access in a procedure body: the table and the
// partition-attribute expression extracted from its key (nil when the
// attribute is not derivable from parameters alone).
type attrRef struct {
	table string
	attr  proc.Expr
}

// plan is one procedure's routing plan: its parameter index and every
// table access's partition attribute.
type plan struct {
	params map[string]int
	refs   []attrRef
}

// Routing holds the static routing extraction for a set of procedures.
// It is built once from the procedure sources — the same IR the engine
// executes — so routing can never drift from what the procedure touches.
type Routing struct {
	part  Partitioner
	plans map[string]*plan
}

// NewRouting extracts a routing plan from every procedure's body.
func NewRouting(procs []*proc.Procedure, part Partitioner) *Routing {
	r := &Routing{part: part, plans: make(map[string]*plan, len(procs))}
	for _, p := range procs {
		pl := &plan{params: make(map[string]int, len(p.Params))}
		for i, pd := range p.Params {
			pl.params[pd.Name] = i
		}
		collectRefs(p.Body, pl)
		r.plans[p.Name] = pl
	}
	return r
}

// collectRefs walks a statement list, recursing into both branches of
// conditionals and into loop bodies: routing must cover every access the
// invocation COULD make, whichever way its guards evaluate.
func collectRefs(body []proc.Stmt, pl *plan) {
	for _, s := range body {
		switch s := s.(type) {
		case proc.ReadStmt:
			addRef(pl, s.Table, s.Key)
		case proc.WriteStmt:
			addRef(pl, s.Table, s.Key)
		case proc.InsertStmt:
			addRef(pl, s.Table, s.Key)
		case proc.DeleteStmt:
			addRef(pl, s.Table, s.Key)
		case proc.IfStmt:
			collectRefs(s.Then, pl)
			collectRefs(s.Else, pl)
		case proc.ForEachStmt:
			collectRefs(s.Body, pl)
		}
	}
}

func addRef(pl *plan, table string, key proc.Expr) {
	attr := hiLeaf(key)
	if !paramOnly(attr, pl.params) {
		attr = nil
	}
	pl.refs = append(pl.refs, attrRef{table: table, attr: attr})
}

// hiLeaf walks a key expression down its packing spine to the highest
// field. The workloads build composite keys as hi*2^k + lo (see the TPC-C
// keyExpr helpers), always with the partition attribute in the highest
// field, so the leftmost leaf of the Add/Mul spine is the attribute — even
// when lower fields (order ids, line numbers) come from read registers a
// static extraction cannot evaluate.
func hiLeaf(e proc.Expr) proc.Expr {
	for {
		b, ok := e.(proc.BinExpr)
		if !ok {
			return e
		}
		switch b.Op {
		case proc.OpAdd, proc.OpMul:
			e = b.L
		default:
			return e
		}
	}
}

// paramOnly reports whether an expression evaluates from parameters and
// constants alone — no read registers, no loop variables.
func paramOnly(e proc.Expr, params map[string]int) bool {
	switch e := e.(type) {
	case proc.ConstExpr:
		return true
	case proc.ParamExpr:
		_, ok := params[e.Name]
		return ok
	case proc.BinExpr:
		return paramOnly(e.L, params) && paramOnly(e.R, params)
	}
	return false
}

// evalAttr evaluates a parameter-only integer expression against one
// invocation's arguments (scalar parameters are element 0 of their list,
// matching the executor's ParamExpr semantics).
func evalAttr(e proc.Expr, pl *plan, args proc.Args) (int64, bool) {
	switch e := e.(type) {
	case proc.ConstExpr:
		if e.V.Kind() != tuple.KindInt {
			return 0, false
		}
		return e.V.Int(), true
	case proc.ParamExpr:
		i, ok := pl.params[e.Name]
		if !ok || i >= len(args) || len(args[i]) == 0 {
			return 0, false
		}
		v := args[i][0]
		if v.Kind() != tuple.KindInt {
			return 0, false
		}
		return v.Int(), true
	case proc.BinExpr:
		l, lok := evalAttr(e.L, pl, args)
		r, rok := evalAttr(e.R, pl, args)
		if !lok || !rok {
			return 0, false
		}
		switch e.Op {
		case proc.OpAdd:
			return l + r, true
		case proc.OpSub:
			return l - r, true
		case proc.OpMul:
			return l * r, true
		case proc.OpDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case proc.OpMod:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// Route returns the sorted, distinct set of shards one invocation touches.
// An invocation touching only replicated tables routes to shard 0. It
// fails when the procedure is unknown or when a partitioned-table key is
// not derivable from the parameters (an opaque procedure — unroutable on
// a cluster wider than one shard).
func (r *Routing) Route(name string, args proc.Args) ([]int, error) {
	pl, ok := r.plans[name]
	if !ok {
		return nil, fmt.Errorf("shard: unknown procedure %q", name)
	}
	set := make(map[int]struct{}, 2)
	for _, ref := range pl.refs {
		if _, partitioned := r.part.ShardOf(ref.table, 0); !partitioned {
			continue
		}
		if ref.attr == nil {
			return nil, fmt.Errorf("shard: %s: key on partitioned table %s is not derivable from parameters", name, ref.table)
		}
		attr, ok := evalAttr(ref.attr, pl, args)
		if !ok {
			return nil, fmt.Errorf("shard: %s: cannot evaluate partition attribute for table %s", name, ref.table)
		}
		s, _ := r.part.ShardOf(ref.table, attr)
		set[s] = struct{}{}
	}
	if len(set) == 0 {
		return []int{0}, nil
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}
