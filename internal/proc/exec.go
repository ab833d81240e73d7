package proc

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"pacman/internal/engine"
	"pacman/internal/tuple"
)

// Args carries one invocation's parameter values: one list per parameter,
// where scalar parameters are length-one lists.
type Args [][]tuple.Value

// A builds a scalar argument.
func A(v tuple.Value) []tuple.Value { return []tuple.Value{v} }

// L builds a list argument.
func L(vs ...tuple.Value) []tuple.Value { return vs }

// ColUpdate is one resolved column assignment handed to an Executor.
type ColUpdate struct {
	Col int
	Val tuple.Value
}

// Executor is the data-access interface the interpreter runs against. The
// OLTP transaction (internal/txn) implements it with concurrency control;
// recovery replay contexts implement it with direct version installation.
// Executor is the storage interface procedure walks drive.
//
// The up and vals slices passed to Write and Insert are owned by the walk
// and recycled across statements: implementations must copy anything they
// keep (every executor in the tree installs fresh tuples, so this falls out
// naturally) and must not retain the slices past the call.
type Executor interface {
	// Read returns the current tuple for key, or nil if absent/deleted.
	Read(t *engine.Table, key uint64) (tuple.Tuple, error)
	// Write applies column updates to the row for key, creating it (with
	// NULLs in unset columns) if absent.
	Write(t *engine.Table, key uint64, up []ColUpdate) error
	// Insert stores a full new row for key.
	Insert(t *engine.Table, key uint64, vals tuple.Tuple) error
	// Delete removes the row for key (no-op if absent).
	Delete(t *engine.Table, key uint64) error
}

// ErrAborted is returned when a procedure executes an Abort statement.
var ErrAborted = errors.New("proc: transaction aborted")

// Filter selects which operation instances a piece executes. Iter is the
// composed iteration key of the enclosing loops (see IterKey).
// IncludeAnyOp powers the walker's subtree-skipping: a filtered walk skips
// an If/ForEach subtree when none of the subtree's ops are included and no
// register escapes it.
type Filter interface {
	Include(op int, iter uint64) bool
	IncludeAnyOp(ops []int) bool
}

// OpSetFilter includes every dynamic instance of a static operation set.
type OpSetFilter map[int]bool

// Include reports whether the instance's static op is in the set.
func (f OpSetFilter) Include(op int, _ uint64) bool { return f[op] }

// IncludeAnyOp reports whether any listed op is in the set.
func (f OpSetFilter) IncludeAnyOp(ops []int) bool {
	for _, o := range ops {
		if f[o] {
			return true
		}
	}
	return false
}

// InstSliceFilter is an allocation-light instance filter: an unsorted slice
// of OpInstance values plus a bitmask of the static ops present. Dynamic
// groups are tiny (a handful of instances), so linear scans beat hashing.
type InstSliceFilter struct {
	Insts  []uint64
	OpMask uint64 // bit per op ID < 64; ops >= 64 set bit 63 conservatively
}

// AddInst records one (op, iteration) instance.
func (f *InstSliceFilter) AddInst(op int, iter uint64) {
	f.Insts = append(f.Insts, OpInstance(op, iter))
	b := uint(op)
	if b > 63 {
		b = 63
	}
	f.OpMask |= 1 << b
}

// Include reports whether the exact instance is present.
func (f *InstSliceFilter) Include(op int, iter uint64) bool {
	b := uint(op)
	if b > 63 {
		b = 63
	}
	if f.OpMask&(1<<b) == 0 {
		return false
	}
	inst := OpInstance(op, iter)
	for _, i := range f.Insts {
		if i == inst {
			return true
		}
	}
	return false
}

// IncludeAnyOp reports whether any instance of any listed op is present.
func (f *InstSliceFilter) IncludeAnyOp(ops []int) bool {
	for _, o := range ops {
		b := uint(o)
		if b > 63 {
			b = 63
		}
		if f.OpMask&(1<<b) == 0 {
			continue
		}
		for _, i := range f.Insts {
			if int(i>>48) == o {
				return true
			}
		}
	}
	return false
}

// OpInstance packs a static op ID and an iteration key into one comparable
// value. Iteration keys use 16 bits per loop level (up to 3 levels).
func OpInstance(op int, iter uint64) uint64 {
	return uint64(op)<<48 | iter&(1<<48-1)
}

// Access is one database access discovered by a dry walk: the dynamic
// analysis' unit of conflict checking.
type Access struct {
	Op    int
	Iter  uint64
	Table *engine.Table
	Key   uint64
	Write bool
}

// Layout fixes, for one invocation, where every (register, iteration)
// lives in the flat register file. Multiplicities depend only on the
// argument list lengths, so all pieces of a transaction share one layout.
type Layout struct {
	c      *Compiled
	trips  []int   // per loop
	base   []int   // per register
	stride [][]int // per register, per enclosing loop
	size   int
}

// maxCachedLayouts bounds the shapes one procedure caches; invocations of
// further shapes compute their layout afresh.
const maxCachedLayouts = 64

// NewLayout returns the register-file layout for one invocation. A layout
// depends only on the loop trip counts (the argument list lengths), so one
// immutable Layout per shape is computed on first use and shared by every
// later invocation of that shape (layouts are never mutated after
// construction).
func (c *Compiled) NewLayout(args Args) (*Layout, error) {
	if len(args) != len(c.params) {
		return nil, fmt.Errorf("proc %q: got %d args, want %d", c.name, len(args), len(c.params))
	}
	// The trip counts, 16 bits each, are the cache key; a shape that does
	// not fit is not cached.
	var key uint64
	cacheable := len(c.loops) <= 4
	for _, lp := range c.loops {
		n := len(args[lp.listParam])
		cacheable = cacheable && n < 1<<16
		key = key<<16 | uint64(n)&0xFFFF
	}
	if cacheable {
		if m := c.layouts.Load(); m != nil {
			if l := (*m)[key]; l != nil {
				return l, nil
			}
		}
	}
	l := &Layout{
		c:      c,
		trips:  make([]int, len(c.loops)),
		base:   make([]int, len(c.regs)),
		stride: make([][]int, len(c.regs)),
	}
	for i, lp := range c.loops {
		l.trips[i] = len(args[lp.listParam])
	}
	off := 0
	for r, ri := range c.regs {
		l.base[r] = off
		n := len(ri.loops)
		strides := make([]int, n)
		mult := 1
		for j := n - 1; j >= 0; j-- {
			strides[j] = mult
			mult *= max(l.trips[ri.loops[j]], 1)
		}
		l.stride[r] = strides
		off += max(mult, 1)
	}
	l.size = off
	if cacheable {
		c.cacheLayout(key, l)
	}
	return l, nil
}

// cacheLayout adds l under key to the copy-on-write layout cache. Racing
// first invocations of one shape compute identical layouts; either wins.
func (c *Compiled) cacheLayout(key uint64, l *Layout) {
	for {
		old := c.layouts.Load()
		var m map[uint64]*Layout
		if old != nil {
			if len(*old) >= maxCachedLayouts {
				return
			}
			m = maps.Clone(*old)
		} else {
			m = make(map[uint64]*Layout, 1)
		}
		m[key] = l
		if c.layouts.CompareAndSwap(old, &m) {
			return
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Instance is one transaction's replay state: its arguments, layout, and
// the shared register file through which values read by one piece flow to
// flow-dependent later pieces.
//
// Shared slots are atomic pointers: a piece's walk may touch slots it does
// not semantically need (assignments and skipped reads are structural), and
// those touches can overlap with the owning piece writing the slot. Slots a
// walk actually *uses* — in a key, guard, or value expression of one of its
// own operations — are always ordered behind their writer by the dependency
// graph, so a lazy atomic load returns the correct value; slots it does not
// use may load as unset, which is harmless.
type Instance struct {
	C      *Compiled
	Args   Args
	layout *Layout
	shared []sharedSlot
}

// sharedSlot is one slot of the shared register file. The first read to
// publish into the slot stores its value inline, so a replayed read costs
// no allocation; a later read of the same register (registers are reused
// by name) publishes a fresh copy instead, because a concurrent piece may
// still be reading the inline value.
type sharedSlot struct {
	p       atomic.Pointer[tuple.Value]
	claimed atomic.Bool
	v       tuple.Value
}

// publish makes v the slot's value.
func (s *sharedSlot) publish(v tuple.Value) {
	if s.claimed.CompareAndSwap(false, true) {
		s.v = v
		s.p.Store(&s.v)
		return
	}
	fresh := v // escapes only on this path
	s.p.Store(&fresh)
}

// NewInstance prepares a replay instance.
func (c *Compiled) NewInstance(args Args) (*Instance, error) {
	l, err := c.NewLayout(args)
	if err != nil {
		return nil, err
	}
	return &Instance{C: c, Args: args, layout: l,
		shared: make([]sharedSlot, l.size)}, nil
}

// frame is the per-walk evaluation state.
type frame struct {
	c      *Compiled
	args   Args
	layout *Layout
	iters  []int // current iteration per loop
	priv   []tuple.Value
	// written marks private slots assigned during this walk; unwritten
	// slots fall back to the instance's shared file. Nil in plain
	// execution mode (no shared file, priv is authoritative).
	written []bool
	poison  []bool // per private slot: value unknown during a dry walk

	shared []sharedSlot // nil in plain execution mode
	filter Filter       // nil = execute everything

	ex  Executor // nil in dry mode
	dry bool

	accesses []Access
	opaque   bool // dry walk hit a guard or key it could not evaluate

	// colUps and valsBuf are per-statement scratch for the slices handed to
	// Executor.Write/Insert (which must not retain them — see Executor),
	// recycled across statements and walks.
	colUps  []ColUpdate
	valsBuf tuple.Tuple

	err     error
	aborted bool
}

func (fr *frame) slot(reg int) int {
	ri := &fr.c.regs[reg]
	off := fr.layout.base[reg]
	st := fr.layout.stride[reg]
	for j, lp := range ri.loops {
		off += fr.iters[lp] * st[j]
	}
	return off
}

// iterKey composes the current iteration indexes of the given loops into a
// 16-bit-per-level key.
func (fr *frame) iterKey(loops []int) uint64 {
	var k uint64
	for _, lp := range loops {
		k = k<<16 | uint64(fr.iters[lp])&0xFFFF
	}
	return k
}

// eval evaluates e; clean is false when the result depends on a poisoned
// register (only possible during dry walks).
func (fr *frame) eval(e cexpr) (tuple.Value, bool) {
	switch e := e.(type) {
	case ceConst:
		return e.v, true
	case ceParam:
		lst := fr.args[e.idx]
		if len(lst) == 0 {
			return tuple.Null(), true
		}
		return lst[0], true
	case ceReg:
		s := fr.slot(e.reg)
		if fr.written == nil || fr.written[s] {
			if fr.poison != nil && fr.poison[s] {
				return tuple.Null(), false
			}
			return fr.priv[s], true
		}
		// Not assigned in this walk: the value, if any, came from a
		// predecessor piece through the shared file.
		if p := fr.shared[s].p.Load(); p != nil {
			return *p, true
		}
		return tuple.Null(), true
	case ceBin:
		l, cl := fr.eval(e.l)
		r, cr := fr.eval(e.r)
		return applyBin(e.op, l, r), cl && cr
	case ceNot:
		v, c := fr.eval(e.e)
		return tuple.Bool(!v.Truthy()), c
	default:
		return tuple.Null(), true
	}
}

func applyBin(op BinOp, l, r tuple.Value) tuple.Value {
	switch op {
	case OpAdd:
		if l.Kind() == tuple.KindString || r.Kind() == tuple.KindString {
			return tuple.S(l.Str() + r.Str())
		}
		if l.Kind() == tuple.KindFloat || r.Kind() == tuple.KindFloat {
			return tuple.F(l.Float() + r.Float())
		}
		return tuple.I(l.Int() + r.Int())
	case OpSub:
		if l.Kind() == tuple.KindFloat || r.Kind() == tuple.KindFloat {
			return tuple.F(l.Float() - r.Float())
		}
		return tuple.I(l.Int() - r.Int())
	case OpMul:
		if l.Kind() == tuple.KindFloat || r.Kind() == tuple.KindFloat {
			return tuple.F(l.Float() * r.Float())
		}
		return tuple.I(l.Int() * r.Int())
	case OpDiv:
		if l.Kind() == tuple.KindFloat || r.Kind() == tuple.KindFloat {
			d := r.Float()
			if d == 0 {
				return tuple.Null()
			}
			return tuple.F(l.Float() / d)
		}
		if r.Int() == 0 {
			return tuple.Null()
		}
		return tuple.I(l.Int() / r.Int())
	case OpMod:
		if r.Int() == 0 {
			return tuple.Null()
		}
		return tuple.I(l.Int() % r.Int())
	case OpEq:
		return tuple.Bool(l.Equal(r))
	case OpNe:
		return tuple.Bool(!l.Equal(r))
	case OpLt:
		return tuple.Bool(l.Compare(r) < 0)
	case OpLe:
		return tuple.Bool(l.Compare(r) <= 0)
	case OpGt:
		return tuple.Bool(l.Compare(r) > 0)
	case OpGe:
		return tuple.Bool(l.Compare(r) >= 0)
	case OpAnd:
		return tuple.Bool(l.Truthy() && r.Truthy())
	case OpOr:
		return tuple.Bool(l.Truthy() || r.Truthy())
	}
	return tuple.Null()
}

// evalKey evaluates a key expression to a uint64 key.
func (fr *frame) evalKey(e cexpr) (uint64, bool) {
	v, clean := fr.eval(e)
	return uint64(v.Int()), clean
}

func (fr *frame) setReg(reg int, v tuple.Value) {
	s := fr.slot(reg)
	fr.priv[s] = v
	if fr.written != nil {
		fr.written[s] = true
	}
	if fr.poison != nil {
		fr.poison[s] = false
	}
}

// walk executes a statement list; returns false to stop (abort or error).
func (fr *frame) walk(stmts []cstmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case cRead:
			if !fr.readStmt(s) {
				return false
			}
		case cWrite:
			if !fr.modStmt(s.op, s.table, s.key, func(key uint64) error {
				up := fr.colUps[:0]
				for _, cs := range s.sets {
					v, _ := fr.eval(cs.val)
					up = append(up, ColUpdate{Col: cs.col, Val: v})
				}
				fr.colUps = up
				return fr.ex.Write(s.table, key, up)
			}) {
				return false
			}
		case cInsert:
			if !fr.modStmt(s.op, s.table, s.key, func(key uint64) error {
				vals := fr.valsBuf[:0]
				for _, ve := range s.vals {
					v, _ := fr.eval(ve)
					vals = append(vals, v)
				}
				fr.valsBuf = vals
				return fr.ex.Insert(s.table, key, vals)
			}) {
				return false
			}
		case cDelete:
			if !fr.modStmt(s.op, s.table, s.key, func(key uint64) error {
				return fr.ex.Delete(s.table, key)
			}) {
				return false
			}
		case cAssign:
			v, clean := fr.eval(s.val)
			fr.setReg(s.dst, v)
			if !clean {
				fr.poison[fr.slot(s.dst)] = true
			}
		case cIf:
			if fr.filter != nil && !s.scope.escapes && !fr.filter.IncludeAnyOp(s.scope.ops) {
				continue // subtree irrelevant to this piece
			}
			v, clean := fr.eval(s.cond)
			if !clean {
				// A guard the dry walk cannot decide: the piece is opaque.
				fr.opaque = true
				return false
			}
			if v.Truthy() {
				if !fr.walk(s.then) {
					return false
				}
			} else {
				if !fr.walk(s.els) {
					return false
				}
			}
		case cForEach:
			if fr.filter != nil && !s.scope.escapes && !fr.filter.IncludeAnyOp(s.scope.ops) {
				continue
			}
			list := fr.args[s.list]
			for i, v := range list {
				fr.iters[s.loop] = i
				if s.idxReg >= 0 {
					fr.setReg(s.idxReg, tuple.I(int64(i)))
				}
				fr.setReg(s.valReg, v)
				if !fr.walk(s.body) {
					return false
				}
			}
			fr.iters[s.loop] = 0
		case cAbort:
			fr.aborted = true
			return false
		}
	}
	return true
}

// readStmt handles a read in all three modes.
func (fr *frame) readStmt(s cRead) bool {
	op := fr.c.ops[s.op]
	iter := fr.iterKey(op.Loops)
	mine := fr.filter == nil || fr.filter.Include(s.op, iter)
	if !mine {
		// Another piece owns this read; later uses of the register fall
		// back to the shared file lazily (see frame.eval).
		return true
	}
	key, clean := fr.evalKey(s.key)
	if !clean {
		fr.opaque = true
		return false
	}
	if fr.dry {
		fr.accesses = append(fr.accesses, Access{Op: s.op, Iter: iter, Table: s.table, Key: key, Write: false})
		// The value is unknown without executing; poison the register.
		sl := fr.slot(s.dst)
		fr.written[sl] = true
		fr.poison[sl] = true
		return true
	}
	row, err := fr.ex.Read(s.table, key)
	if err != nil {
		fr.err = err
		return false
	}
	v := tuple.Null()
	if row != nil && s.col < len(row) {
		v = row[s.col]
	}
	fr.setReg(s.dst, v)
	if fr.shared != nil {
		fr.shared[fr.slot(s.dst)].publish(v)
	}
	return true
}

// modStmt handles write/insert/delete in all three modes.
func (fr *frame) modStmt(opID int, t *engine.Table, keyExpr cexpr, run func(key uint64) error) bool {
	op := fr.c.ops[opID]
	iter := fr.iterKey(op.Loops)
	if fr.filter != nil && !fr.filter.Include(opID, iter) {
		return true
	}
	key, clean := fr.evalKey(keyExpr)
	if !clean {
		fr.opaque = true
		return false
	}
	if fr.dry {
		fr.accesses = append(fr.accesses, Access{Op: opID, Iter: iter, Table: t, Key: key, Write: true})
		return true
	}
	if err := run(key); err != nil {
		fr.err = err
		return false
	}
	return true
}

// Execute runs the whole procedure against ex (the OLTP path and serial
// command-log replay). It returns ErrAborted if the procedure aborted.

// framePool recycles walk frames: replay walks each transaction body many
// times (once per piece and group), and per-walk register files dominated
// the allocation profile before pooling.
var framePool = sync.Pool{New: func() any { return &frame{} }}

func clearValues(s []tuple.Value, n int) []tuple.Value {
	if cap(s) < n {
		return make([]tuple.Value, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = tuple.Value{}
	}
	return s
}

func clearBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func clearInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// getFrame prepares a pooled frame for one walk. withWritten and withPoison
// select the extra tracking state (piece walks and dry walks respectively).
func getFrame(c *Compiled, args Args, layout *Layout, withWritten, withPoison bool) *frame {
	fr := framePool.Get().(*frame)
	fr.c = c
	fr.args = args
	fr.layout = layout
	fr.iters = clearInts(fr.iters, len(c.loops))
	fr.priv = clearValues(fr.priv, layout.size)
	if withWritten {
		fr.written = clearBools(fr.written, layout.size)
	} else {
		fr.written = nil
	}
	if withPoison {
		fr.poison = clearBools(fr.poison, layout.size)
	} else {
		fr.poison = nil
	}
	fr.shared = nil
	fr.filter = nil
	fr.ex = nil
	fr.dry = false
	fr.accesses = fr.accesses[:0]
	fr.opaque = false
	fr.err = nil
	fr.aborted = false
	return fr
}

// putFrame returns a frame to the pool. The caller must have copied out
// anything it needs (error, accesses).
func putFrame(fr *frame) {
	fr.c = nil
	fr.args = nil
	fr.layout = nil
	fr.shared = nil
	fr.filter = nil
	fr.ex = nil
	clear(fr.colUps)
	fr.colUps = fr.colUps[:0]
	clear(fr.valsBuf)
	fr.valsBuf = fr.valsBuf[:0]
	framePool.Put(fr)
}

func (c *Compiled) Execute(args Args, ex Executor) error {
	l, err := c.NewLayout(args)
	if err != nil {
		return err
	}
	fr := getFrame(c, args, l, false, false)
	defer putFrame(fr)
	fr.ex = ex
	fr.walk(c.body)
	if fr.aborted {
		return ErrAborted
	}
	return fr.err
}

// ExecutePiece runs the subset of operations selected by filter, reading
// cross-piece values from and publishing this piece's reads to the shared
// register file.
func (in *Instance) ExecutePiece(filter Filter, ex Executor) error {
	fr := getFrame(in.C, in.Args, in.layout, true, false)
	defer putFrame(fr)
	fr.shared = in.shared
	fr.filter = filter
	fr.ex = ex
	fr.walk(in.C.body)
	if fr.aborted {
		return ErrAborted
	}
	return fr.err
}

// DryWalk extracts the (table, key) accesses the filtered piece would
// perform, without executing any operation. It reports opaque=true when a
// guard or key depends on a value this piece itself would read — the
// caller must then fall back to conservative (fenced) execution, per
// Section 4.3.1's requirement that read/write sets be identifiable from the
// piece's input arguments.
func (in *Instance) DryWalk(filter Filter) (accesses []Access, opaque bool) {
	fr := getFrame(in.C, in.Args, in.layout, true, true)
	defer putFrame(fr)
	fr.shared = in.shared
	fr.filter = filter
	fr.dry = true
	// Guards over predecessor pieces' reads resolve through the lazy
	// shared-file fallback; this piece's own reads poison their registers.
	fr.walk(in.C.body)
	// The access list is handed to the caller; detach it from the pooled
	// frame.
	accesses = append([]Access(nil), fr.accesses...)
	return accesses, fr.opaque
}
