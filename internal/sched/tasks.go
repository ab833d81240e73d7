package sched

import (
	"sync/atomic"

	"pacman/internal/analysis"
	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/wal"
)

// task is one unit of schedulable replay work: a dynamic operation group of
// one piece, an opaque piece executed whole, or one ad-hoc write. run
// executes it through the executor of the worker that picked it up.
type task struct {
	run     func(ex *installExec) error
	pending atomic.Int32
	succs   []*task
}

// addDep records that t must wait for d. Graph construction is
// single-threaded per piece-set, so no locking is needed. Self-dependencies
// (a task touching one key twice, e.g. a merged read-modify-write group)
// are ignored: intra-task order is the walker's program order.
func (t *task) addDep(d *task) {
	if t == d {
		return
	}
	for _, s := range d.succs {
		if s == t {
			return // already dependent
		}
	}
	d.succs = append(d.succs, t)
	t.pending.Add(1)
}

// pieceInst is one transaction's contribution to one piece-set.
type pieceInst struct {
	ts    engine.TS
	inst  *proc.Instance
	def   *analysis.PieceDef
	adhoc []wal.WriteImage // non-nil for ad-hoc tuple entries
}

// conflictKey identifies one tuple for chain construction.
type conflictKey struct {
	table int
	key   uint64
}

// keyState tracks the chain tail per tuple: the last writer task and the
// reader tasks since it. A new reader depends on the last writer; a new
// writer depends on the last writer and all readers since.
type keyState struct {
	lastWriter *task
	readers    []*task
}

// chainer builds per-key conflict chains in log order.
type chainer struct {
	keys map[conflictKey]*keyState
	// fence handling: an opaque piece acts as a full barrier within the
	// piece-set.
	sinceFence []*task
	lastFence  *task
}

func newChainer() *chainer {
	return &chainer{keys: make(map[conflictKey]*keyState)}
}

// addTask wires a task's dependencies given its accesses, then records it.
func (c *chainer) addTask(t *task, accesses []proc.Access) {
	if c.lastFence != nil {
		t.addDep(c.lastFence)
	}
	for _, a := range accesses {
		ck := conflictKey{table: a.Table.ID(), key: a.Key}
		st := c.keys[ck]
		if st == nil {
			st = &keyState{}
			c.keys[ck] = st
		}
		if a.Write {
			if st.lastWriter != nil {
				t.addDep(st.lastWriter)
			}
			for _, r := range st.readers {
				if r != t {
					t.addDep(r)
				}
			}
			st.lastWriter = t
			st.readers = st.readers[:0]
		} else {
			if st.lastWriter != nil {
				t.addDep(st.lastWriter)
			}
			st.readers = append(st.readers, t)
		}
	}
	c.sinceFence = append(c.sinceFence, t)
}

// addFence wires a task as a full barrier: it waits for everything since
// the previous fence, and everything after waits for it.
func (c *chainer) addFence(t *task) {
	if c.lastFence != nil {
		t.addDep(c.lastFence)
	}
	for _, p := range c.sinceFence {
		t.addDep(p)
	}
	c.lastFence = t
	c.sinceFence = c.sinceFence[:0]
	// Reset key states: the fence dominates everything before it.
	c.keys = make(map[conflictKey]*keyState)
}

// buildTasks turns a piece-set's pieces into a task graph for several
// workers: each dynamic operation group becomes a task chained by its
// accessed keys; opaque pieces become fences. It returns the tasks in
// creation (log) order.
func (r *Replayer) buildTasks(pieces []pieceInst) []*task {
	ch := newChainer()
	var tasks []*task
	for i := range pieces {
		p := &pieces[i]
		if p.adhoc != nil {
			// Ad-hoc tuple entry: one task per write, chained by key.
			for i := range p.adhoc {
				w := &p.adhoc[i]
				t := &task{}
				tbl := r.db.TableByID(w.TableID)
				t.run = func(ex *installExec) error {
					ex.ts = p.ts
					ex.installImage(tbl, w)
					return nil
				}
				ch.addTask(t, []proc.Access{{Table: tbl, Key: w.Key, Write: true}})
				tasks = append(tasks, t)
			}
			continue
		}
		accesses, opaque := p.inst.DryWalk(p.def.Filter)
		if opaque {
			t := &task{}
			t.run = func(ex *installExec) error { return r.execWholePiece(p, ex) }
			ch.addFence(t)
			tasks = append(tasks, t)
			continue
		}
		// Partition accesses into dynamic groups.
		groups := splitDynamicGroups(p.def, accesses)
		for _, g := range groups {
			t := &task{}
			t.run = func(ex *installExec) error {
				ex.ts = p.ts
				return p.inst.ExecutePiece(&g.filter, ex)
			}
			ch.addTask(t, g.accesses)
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// dynGroup is one dynamic operation group: the instances of a static group
// within one iteration of the group's common loop prefix.
type dynGroup struct {
	filter   proc.InstSliceFilter
	accesses []proc.Access
}

// dynKey identifies a dynamic group.
type dynKey struct {
	group  int
	prefix uint64
}

// splitDynamicGroups assigns each access to its dynamic group: the static
// flow-dependency component of its op, split per iteration of the
// component's common loop prefix (Section 4.3.1: instances in different key
// spaces with no flow dependency run in parallel).
//
// Two groups of the same piece whose runtime keys collide (same tuple, at
// least one write) are merged: their accesses interleave in program order
// on that tuple, which inter-task edges cannot express — e.g., a
// self-transfer where the source and destination parameters name the same
// row. A merged task re-executes its operations in program order, restoring
// the serial semantics.
func splitDynamicGroups(def *analysis.PieceDef, accesses []proc.Access) []*dynGroup {
	// Initial grouping: small slices, linear lookups (accesses per piece
	// are a handful; maps cost more than they save here).
	type groupTag struct {
		key dynKey
	}
	var tags []groupTag
	groupOf := make([]int, len(accesses))
	for i, a := range accesses {
		gid := def.GroupOf[a.Op]
		depth := def.Groups[gid].CommonDepth
		opDepth := len(def.Proc.Op(a.Op).Loops)
		k := dynKey{group: gid, prefix: a.Iter >> (16 * uint(opDepth-depth))}
		idx := -1
		for j := range tags {
			if tags[j].key == k {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(tags)
			tags = append(tags, groupTag{key: k})
		}
		groupOf[i] = idx
	}

	// Union groups conflicting on a runtime key (same tuple, >=1 write):
	// their accesses interleave in program order, which inter-task edges
	// cannot express (e.g. self-transfers).
	parent := make([]int, len(tags))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range accesses {
		for j := i + 1; j < len(accesses); j++ {
			if groupOf[i] == groupOf[j] {
				continue
			}
			ai, aj := &accesses[i], &accesses[j]
			if ai.Key == aj.Key && ai.Table == aj.Table && (ai.Write || aj.Write) {
				ri, rj := find(groupOf[i]), find(groupOf[j])
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}

	// Materialize merged groups, preserving first-access order.
	rootGroup := make([]*dynGroup, len(tags))
	out := make([]*dynGroup, 0, len(tags))
	for i, a := range accesses {
		root := find(groupOf[i])
		g := rootGroup[root]
		if g == nil {
			g = &dynGroup{}
			rootGroup[root] = g
			out = append(out, g)
		}
		g.filter.AddInst(a.Op, a.Iter)
		g.accesses = append(g.accesses, a)
	}
	return out
}

// execWholePiece executes a piece serially (single-worker piece-sets and
// opaque fences) through ex, which it stamps with the piece's timestamp.
func (r *Replayer) execWholePiece(p *pieceInst, ex *installExec) error {
	ex.ts = p.ts
	if p.adhoc != nil {
		for i := range p.adhoc {
			w := &p.adhoc[i]
			ex.installImage(r.db.TableByID(w.TableID), w)
		}
		return nil
	}
	return p.inst.ExecutePiece(p.def.Filter, ex)
}
