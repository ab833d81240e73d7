// Package analysis implements PACMAN's compile-time static analysis
// (Section 4.1): decomposing each stored procedure into a maximal set of
// procedure slices organized in a local dependency graph (Algorithm 1), and
// integrating the local graphs into the global dependency graph of blocks
// (Algorithm 2) that drives recovery scheduling.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"pacman/internal/proc"
)

// Slice is one procedure slice: a set of operations of a single procedure
// that must execute together (Section 4.1.1). Ops are sorted in program
// order.
type Slice struct {
	// ID is the slice's index within its LDG, assigned in program order of
	// the slice's first operation (so the paper's T1, T2, T3 come out as
	// slices 0, 1, 2).
	ID  int
	Ops []int
}

// LDG is the local dependency graph of one procedure: slices plus the
// intra-procedure flow-dependency edges between them.
type LDG struct {
	Proc   *proc.Compiled
	Slices []*Slice
	// Succs[i] lists slice IDs directly flow-dependent on slice i.
	Succs [][]int
	// sliceOf maps op ID to slice ID.
	sliceOf []int
}

// BuildLDG decomposes one compiled procedure following Algorithm 1:
// singleton slices, data-dependent merging, convexity closure, flow edges,
// and cycle breaking, iterated to a fixpoint.
func BuildLDG(c *proc.Compiled) *LDG {
	return BuildLDGWith(c, nil)
}

// BuildLDGWith is BuildLDG with additional pre-merged op groups: every op
// set in premerge is forced into one slice before the normal fixpoint runs.
// Alternative decomposers (the transaction-chopping baseline) coarsen
// PACMAN's decomposition through this entry point while still receiving a
// well-formed LDG (data-dependence closure, convexity, acyclicity).
func BuildLDGWith(c *proc.Compiled, premerge [][]int) *LDG {
	n := c.NumOps()
	uf := newUnionFind(n)
	for _, g := range premerge {
		for i := 1; i < len(g); i++ {
			uf.union(g[0], g[i])
		}
	}

	// Merge mutually data-dependent operations: same table, at least one
	// modification (insert and delete count as writes).
	ops := c.Ops()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ops[i].TableID == ops[j].TableID &&
				(ops[i].Kind.IsModification() || ops[j].Kind.IsModification()) {
				uf.union(i, j)
			}
		}
	}

	for {
		changed := false
		// Convexity: if x and y share a slice and y flow-depends on x, every
		// op between them (program order) joins the slice.
		for y := 0; y < n; y++ {
			for _, x := range ops[y].FlowDeps {
				if uf.find(x) != uf.find(y) {
					continue
				}
				for z := x + 1; z < y; z++ {
					if uf.union(z, y) {
						changed = true
					}
				}
			}
		}
		// Cycle breaking: merge slices that are mutually reachable through
		// flow edges.
		if mergeSCCs(n, uf, func(y int) []int { return ops[y].FlowDeps }) {
			changed = true
		}
		if !changed {
			break
		}
	}

	return assembleLDG(c, uf)
}

// mergeSCCs merges union-find groups that lie on a directed cycle of the
// quotient graph induced by op-level edges (dep(y) -> y). It reports
// whether anything merged.
func mergeSCCs(n int, uf *unionFind, depsOf func(int) []int) bool {
	// Build the quotient graph.
	adj := make(map[int]map[int]struct{})
	for y := 0; y < n; y++ {
		ry := uf.find(y)
		for _, x := range depsOf(y) {
			rx := uf.find(x)
			if rx == ry {
				continue
			}
			if adj[rx] == nil {
				adj[rx] = make(map[int]struct{})
			}
			adj[rx][ry] = struct{}{}
		}
	}
	// Tarjan SCC over the quotient nodes.
	sccs := stronglyConnected(adj)
	merged := false
	for _, comp := range sccs {
		for i := 1; i < len(comp); i++ {
			if uf.union(comp[0], comp[i]) {
				merged = true
			}
		}
	}
	return merged
}

// stronglyConnected returns the non-trivial (size > 1) strongly connected
// components of the graph.
func stronglyConnected(adj map[int]map[int]struct{}) [][]int {
	// Collect all nodes.
	nodes := make(map[int]struct{})
	for u, vs := range adj {
		nodes[u] = struct{}{}
		for v := range vs {
			nodes[v] = struct{}{}
		}
	}
	index := make(map[int]int)
	low := make(map[int]int)
	onStack := make(map[int]bool)
	var stack []int
	var out [][]int
	next := 0

	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	// Deterministic iteration order.
	ordered := make([]int, 0, len(nodes))
	for v := range nodes {
		ordered = append(ordered, v)
	}
	sort.Ints(ordered)
	for _, v := range ordered {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return out
}

// assembleLDG turns the final union-find into slices ordered by first op,
// and derives the slice-level flow edges.
func assembleLDG(c *proc.Compiled, uf *unionFind) *LDG {
	groups := uf.groups()
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	// Order slices by their first (minimum) op, giving T1, T2, ... naming.
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })

	g := &LDG{Proc: c, sliceOf: make([]int, c.NumOps())}
	rootSlice := make(map[int]int, len(roots))
	for id, r := range roots {
		s := &Slice{ID: id, Ops: groups[r]}
		g.Slices = append(g.Slices, s)
		rootSlice[r] = id
		for _, op := range s.Ops {
			g.sliceOf[op] = id
		}
	}
	// Slice edges from op flow deps.
	succSets := make([]map[int]struct{}, len(g.Slices))
	for y, op := range c.Ops() {
		sy := g.sliceOf[y]
		for _, x := range op.FlowDeps {
			sx := g.sliceOf[x]
			if sx == sy {
				continue
			}
			if succSets[sx] == nil {
				succSets[sx] = make(map[int]struct{})
			}
			succSets[sx][sy] = struct{}{}
		}
	}
	g.Succs = make([][]int, len(g.Slices))
	for i, set := range succSets {
		for v := range set {
			g.Succs[i] = append(g.Succs[i], v)
		}
		sort.Ints(g.Succs[i])
	}
	return g
}

// String renders the LDG for debugging and the analyzer tool.
func (g *LDG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LDG(%s):\n", g.Proc.Name())
	for _, s := range g.Slices {
		fmt.Fprintf(&b, "  S%d {", s.ID+1)
		for i, op := range s.Ops {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.Proc.FormatOp(op))
		}
		fmt.Fprintf(&b, "} -> %v\n", plusOne(g.Succs[s.ID]))
	}
	return b.String()
}

func plusOne(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x + 1
	}
	return out
}
