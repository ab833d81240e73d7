// Package index provides the concurrent ordered index used by the storage
// engine and the recovery schemes.
//
// BTree is a concurrent B+tree over uint64 keys using latch crabbing
// (lock coupling): readers descend with shared locks, writers descend with
// exclusive locks and release an ancestor as soon as the child below it is
// "safe" (cannot split). Inserts split full nodes preemptively on the way
// down, so a split never propagates upward and every operation is a single
// root-to-leaf pass. Deletes are lazy: entries are removed from leaves but
// nodes are never merged, which keeps the locking protocol simple at the
// cost of slack space after heavy deletion — an acceptable trade for OLTP
// workloads where deletes are rare (TPC-C's Delivery is the only deleter).
//
// The tree intentionally exposes the concurrency profile the paper's
// experiments depend on: many threads hammering the index during recovery
// contend on upper-level latches, which is one of the scalability limits
// Section 6.2.2 attributes to "the performance of the concurrent database
// indexes".
package index

import (
	"sync"
	"sync/atomic"
)

// maxKeys is the maximum number of keys per node (the B+tree order). It must
// be even so a full node splits into two equal halves.
const maxKeys = 32

type node[V any] struct {
	mu   sync.RWMutex
	leaf bool
	n    int
	keys [maxKeys]uint64
	// children is used by inner nodes only (len maxKeys+1 when allocated);
	// vals and next are used by leaves only.
	children []*node[V]
	vals     []V
	next     *node[V]
}

func newLeaf[V any]() *node[V] {
	return &node[V]{leaf: true, vals: make([]V, maxKeys)}
}

func newInner[V any]() *node[V] {
	return &node[V]{children: make([]*node[V], maxKeys+1)}
}

// search returns the index of the first key >= k within the node's n keys.
func (nd *node[V]) search(k uint64) int {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nd.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child slot to descend into for key k in an inner
// node: the first slot whose separator exceeds k.
func (nd *node[V]) childIndex(k uint64) int {
	lo, hi := 0, nd.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nd.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BTree is a concurrent B+tree mapping uint64 keys to values of type V.
// The zero value is not usable; call NewBTree.
type BTree[V any] struct {
	rootMu sync.RWMutex // guards the root pointer itself
	root   *node[V]
	length atomic.Int64
}

// NewBTree returns an empty tree.
func NewBTree[V any]() *BTree[V] {
	return &BTree[V]{root: newLeaf[V]()}
}

// Len returns the number of entries.
func (t *BTree[V]) Len() int { return int(t.length.Load()) }

// lockRootShared returns the root read-locked, with the root pointer
// guaranteed current at the time of locking.
func (t *BTree[V]) lockRootShared() *node[V] {
	t.rootMu.RLock()
	r := t.root
	r.mu.RLock()
	t.rootMu.RUnlock()
	return r
}

// Get returns the value stored under k.
func (t *BTree[V]) Get(k uint64) (V, bool) {
	cur := t.lockRootShared()
	for !cur.leaf {
		child := cur.children[cur.childIndex(k)]
		child.mu.RLock()
		cur.mu.RUnlock()
		cur = child
	}
	defer cur.mu.RUnlock()
	i := cur.search(k)
	if i < cur.n && cur.keys[i] == k {
		return cur.vals[i], true
	}
	var zero V
	return zero, false
}

// Insert stores v under k if k is absent and reports whether it inserted.
// An existing key is left unmodified.
func (t *BTree[V]) Insert(k uint64, v V) bool {
	_, inserted := t.insert(k, func() V { return v })
	return inserted
}

// GetOrInsert returns the value under k, creating it with mk if absent.
// The bool result reports whether the value was newly inserted. mk is called
// at most once, while holding the leaf latch, so creation is atomic with
// respect to concurrent GetOrInsert calls for the same key.
func (t *BTree[V]) GetOrInsert(k uint64, mk func() V) (V, bool) {
	return t.insert(k, mk)
}

// insert descends with exclusive latch crabbing, splitting full nodes
// preemptively. It returns the value now stored under k and whether mk
// created it.
func (t *BTree[V]) insert(k uint64, mk func() V) (V, bool) {
	t.rootMu.Lock()
	cur := t.root
	cur.mu.Lock()
	if cur.n == maxKeys {
		// Grow the tree: split the root under the exclusive rootMu.
		newRoot := newInner[V]()
		newRoot.children[0] = cur
		t.splitChild(newRoot, 0, cur)
		t.root = newRoot
		// Descend into the correct half; the other half is unlocked.
		// splitChild leaves both halves locked.
		left, right := newRoot.children[0], newRoot.children[1]
		if k < newRoot.keys[0] {
			right.mu.Unlock()
			cur = left
		} else {
			left.mu.Unlock()
			cur = right
		}
	}
	// The locked node cannot split, so the root pointer is now stable.
	t.rootMu.Unlock()

	for !cur.leaf {
		idx := cur.childIndex(k)
		child := cur.children[idx]
		child.mu.Lock()
		if child.n == maxKeys {
			t.splitChild(cur, idx, child)
			// Both halves are locked; keep the one k belongs to.
			sib := cur.children[idx+1]
			if k < cur.keys[idx] {
				sib.mu.Unlock()
			} else {
				child.mu.Unlock()
				child = sib
			}
		}
		cur.mu.Unlock()
		cur = child
	}

	i := cur.search(k)
	if i < cur.n && cur.keys[i] == k {
		v := cur.vals[i]
		cur.mu.Unlock()
		return v, false
	}
	v := mk()
	copy(cur.keys[i+1:cur.n+1], cur.keys[i:cur.n])
	copy(cur.vals[i+1:cur.n+1], cur.vals[i:cur.n])
	cur.keys[i] = k
	cur.vals[i] = v
	cur.n++
	cur.mu.Unlock()
	t.length.Add(1)
	return v, true
}

// splitChild splits the full child at parent.children[idx] into two halves,
// inserting the separator into parent. Caller holds exclusive latches on
// parent and child; on return the new sibling is also exclusively latched.
func (t *BTree[V]) splitChild(parent *node[V], idx int, child *node[V]) {
	var sib *node[V]
	var sep uint64
	h := maxKeys / 2
	if child.leaf {
		sib = newLeaf[V]()
		sib.mu.Lock()
		copy(sib.keys[:], child.keys[h:])
		copy(sib.vals, child.vals[h:])
		sib.n = maxKeys - h
		// Clear moved values so the old leaf does not pin them.
		var zero V
		for j := h; j < maxKeys; j++ {
			child.vals[j] = zero
		}
		child.n = h
		sib.next = child.next
		child.next = sib
		sep = sib.keys[0]
	} else {
		sib = newInner[V]()
		sib.mu.Lock()
		sep = child.keys[h]
		copy(sib.keys[:], child.keys[h+1:])
		copy(sib.children, child.children[h+1:maxKeys+1])
		sib.n = maxKeys - h - 1
		for j := h + 1; j <= maxKeys; j++ {
			child.children[j] = nil
		}
		child.n = h
	}
	copy(parent.keys[idx+1:parent.n+1], parent.keys[idx:parent.n])
	copy(parent.children[idx+2:parent.n+2], parent.children[idx+1:parent.n+1])
	parent.keys[idx] = sep
	parent.children[idx+1] = sib
	parent.n++
}

// Delete removes k and reports whether it was present. Leaves are never
// merged (lazy deletion), so deletion needs only a shared-latch descent
// plus an exclusive latch on the target leaf.
func (t *BTree[V]) Delete(k uint64) bool {
	t.rootMu.RLock()
	cur := t.root
	if cur.leaf {
		// The leaf flag is immutable, and the root cannot split while we
		// hold rootMu, so locking it directly is safe.
		cur.mu.Lock()
		t.rootMu.RUnlock()
		return t.deleteFromLeaf(cur, k)
	}
	cur.mu.RLock()
	t.rootMu.RUnlock()
	for {
		child := cur.children[cur.childIndex(k)]
		if child.leaf {
			child.mu.Lock()
			cur.mu.RUnlock()
			return t.deleteFromLeaf(child, k)
		}
		child.mu.RLock()
		cur.mu.RUnlock()
		cur = child
	}
}

// deleteFromLeaf removes k from the exclusively latched leaf and unlocks it.
func (t *BTree[V]) deleteFromLeaf(leaf *node[V], k uint64) bool {
	defer leaf.mu.Unlock()
	i := leaf.search(k)
	if i >= leaf.n || leaf.keys[i] != k {
		return false
	}
	copy(leaf.keys[i:leaf.n-1], leaf.keys[i+1:leaf.n])
	copy(leaf.vals[i:leaf.n-1], leaf.vals[i+1:leaf.n])
	var zero V
	leaf.vals[leaf.n-1] = zero
	leaf.n--
	t.length.Add(-1)
	return true
}

// Scan calls fn for each entry with lo <= key <= hi in ascending key order,
// stopping early if fn returns false. The scan is not a consistent snapshot:
// entries inserted or deleted concurrently may or may not be observed, but
// every entry visited was present at the moment its leaf was latched.
func (t *BTree[V]) Scan(lo, hi uint64, fn func(k uint64, v V) bool) {
	cur := t.lockRootShared()
	for !cur.leaf {
		child := cur.children[cur.childIndex(lo)]
		child.mu.RLock()
		cur.mu.RUnlock()
		cur = child
	}
	for {
		for i := cur.search(lo); i < cur.n; i++ {
			k := cur.keys[i]
			if k > hi {
				cur.mu.RUnlock()
				return
			}
			if !fn(k, cur.vals[i]) {
				cur.mu.RUnlock()
				return
			}
		}
		nxt := cur.next
		if nxt == nil {
			cur.mu.RUnlock()
			return
		}
		nxt.mu.RLock()
		cur.mu.RUnlock()
		cur = nxt
	}
}
