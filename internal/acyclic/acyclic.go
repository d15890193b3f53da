// Package acyclic provides incremental directed-graph acyclicity — the
// "graph theory" half of the paper's MonoSAT usage. Edges are inserted one
// at a time (as the SAT search assigns edge literals true) and the first
// insertion that closes a cycle is reported together with the cycle's edge
// path, which the solver turns into a learned conflict clause.
//
// The incremental maintenance uses the Pearce–Kelly dynamic topological
// ordering algorithm: each node has an order index; inserting an edge that
// goes "backward" in the ordering triggers a bounded double search of the
// affected region, either finding a cycle or locally repairing the order.
// Edge deletions must happen in exact reverse insertion order (the SAT
// trail guarantees this), which keeps deletion O(1): removing edges never
// invalidates a topological order.
package acyclic

import "slices"

// Edge is a directed edge between node ids.
type Edge struct {
	From, To int32
}

// Graph is an incrementally maintained DAG. The zero value is an empty
// graph; nodes are added with AddNode or Grow.
type Graph struct {
	out [][]int32
	in  [][]int32
	ord []int32 // topological index of each node

	// scratch for the double search
	visited  []bool
	parent   []int32
	fwd, bwd []int32

	edgeTrail []Edge

	// Reorder work counters (see Reorders); maintained unconditionally —
	// two int adds per order repair, far below measurement noise.
	reorders   int64
	movedNodes int64
}

// Reorders reports the Pearce–Kelly order-maintenance work done so far:
// how many affected-region reorders ran and the total nodes they moved.
// This is the theory-side cost the solver's Stats cannot see, exposed for
// progress sampling and reports.
func (g *Graph) Reorders() (count, movedNodes int64) {
	return g.reorders, g.movedNodes
}

// NewGraph returns a graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Grow(n)
	return g
}

// Grow ensures the graph has at least n nodes. Each per-node slice grows
// by one append, so a graph grown a little at a time keeps amortized
// growth.
func (g *Graph) Grow(n int) {
	old := len(g.out)
	if n <= old {
		return
	}
	g.out = append(g.out, make([][]int32, n-old)...)
	g.in = append(g.in, make([][]int32, n-old)...)
	g.ord = append(g.ord, make([]int32, n-old)...)
	g.visited = append(g.visited, make([]bool, n-old)...)
	g.parent = append(g.parent, make([]int32, n-old)...)
	for id := old; id < n; id++ {
		g.ord[id], g.parent[id] = int32(id), -1
	}
}

// Reserve makes room for the edges edge(0), …, edge(n-1), which are about
// to be inserted: in the edge trail, and in each node's adjacency for its
// degree among them, so inserting them appends in place.
func (g *Graph) Reserve(n int, edge func(i int) Edge) {
	g.edgeTrail = slices.Grow(g.edgeTrail, n)
	deg := make([]int32, 2*len(g.out))
	outDeg, inDeg := deg[:len(g.out)], deg[len(g.out):]
	for i := 0; i < n; i++ {
		e := edge(i)
		outDeg[e.From]++
		inDeg[e.To]++
	}
	reserve(g.out, outDeg)
	reserve(g.in, inDeg)
}

// reserve gives each list room for deg more entries: a list without that
// much spare capacity moves to a window of one new slab.
func reserve(lists [][]int32, deg []int32) {
	size := 0
	for u, d := range deg {
		if need := len(lists[u]) + int(d); need > cap(lists[u]) {
			size += need
		}
	}
	if size == 0 {
		return
	}
	slab := make([]int32, size)
	for u, d := range deg {
		if need := len(lists[u]) + int(d); need > cap(lists[u]) {
			lists[u], slab = append(slab[:0:need], lists[u]...), slab[need:]
		}
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.out) }

// SetOrder seeds the maintained topological order with the given node
// positions (a permutation of 0..n-1). Call before inserting any edge.
// Warm-starting with an order the coming edges mostly respect (e.g. the
// checker's heuristic schedule ŝ) makes their insertion O(1) instead of
// triggering Pearce–Kelly reorders.
func (g *Graph) SetOrder(pos []int32) {
	if len(g.edgeTrail) != 0 {
		panic("acyclic: SetOrder after edges were inserted")
	}
	copy(g.ord, pos)
}

// NumEdges returns the current edge count.
func (g *Graph) NumEdges() int { return len(g.edgeTrail) }

// AddEdge inserts the edge u→v. If the insertion would create a cycle, it
// is NOT inserted and the cycle is returned as a node path
// [v, ..., u] such that consecutive nodes are existing edges and u→v closes
// the cycle. On success it returns nil.
//
// Self-loops are reported as the one-node path [u].
func (g *Graph) AddEdge(u, v int32) []int32 {
	if u == v {
		return []int32{u}
	}
	if g.ord[u] >= g.ord[v] {
		// Backward edge: search the affected region [ord[v], ord[u]].
		if path := g.discover(v, u); path != nil {
			return path
		}
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.edgeTrail = append(g.edgeTrail, Edge{u, v})
	return nil
}

// RemoveLastEdge undoes the most recent successful AddEdge. Calls must
// mirror AddEdge in exact reverse (stack) order.
func (g *Graph) RemoveLastEdge() {
	n := len(g.edgeTrail) - 1
	e := g.edgeTrail[n]
	g.edgeTrail = g.edgeTrail[:n]
	g.out[e.From] = g.out[e.From][:len(g.out[e.From])-1]
	g.in[e.To] = g.in[e.To][:len(g.in[e.To])-1]
}

// discover runs the Pearce–Kelly double search for a pending edge u→v
// where ord[u] >= ord[v]: forward from v (bounded above by ord[u]) and
// backward from u (bounded below by ord[v]). If the forward search reaches
// u, the parent chain yields the cycle path and discover returns it;
// otherwise the affected region is re-ordered and discover returns nil.
func (g *Graph) discover(v, u int32) []int32 {
	ub := g.ord[u]
	lb := g.ord[v]

	// Forward search from v over nodes with ord < ub (any v⇝u path has all
	// intermediate orders strictly inside (lb, ub) while the order is
	// valid, so the bound is safe). The worklist doubles as the visited
	// list: every node ever pushed stays in it.
	g.fwd = g.fwd[:0]
	pushF := func(n, from int32) {
		g.visited[n] = true
		g.parent[n] = from
		g.fwd = append(g.fwd, n)
	}
	pushF(v, -1)
	reached := false
	for head := 0; head < len(g.fwd) && !reached; head++ {
		n := g.fwd[head]
		for _, w := range g.out[n] {
			if w == u {
				// Cycle: v ⇝ n → u (then the pending u→v closes it).
				g.parent[u] = n
				reached = true
				break
			}
			if !g.visited[w] && g.ord[w] < ub {
				pushF(w, n)
			}
		}
	}
	if reached {
		// Reconstruct v ⇝ u from the parent chain.
		var path []int32
		for n := u; n != -1; n = g.parent[n] {
			path = append(path, n)
		}
		// path is u..v; reverse to v..u.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		for _, n := range g.fwd {
			g.visited[n] = false
		}
		return path
	}

	// Backward search from u over nodes with ord > lb. Reuses visited;
	// forward nodes stay marked, keeping the two sets disjoint.
	g.bwd = g.bwd[:0]
	g.visited[u] = true
	g.bwd = append(g.bwd, u)
	for head := 0; head < len(g.bwd); head++ {
		n := g.bwd[head]
		for _, w := range g.in[n] {
			if !g.visited[w] && g.ord[w] > lb {
				g.visited[w] = true
				g.bwd = append(g.bwd, w)
			}
		}
	}

	g.reorder(g.fwd, g.bwd)
	g.reorders++
	g.movedNodes += int64(len(g.fwd) + len(g.bwd))
	for _, n := range g.fwd {
		g.visited[n] = false
	}
	for _, n := range g.bwd {
		g.visited[n] = false
	}
	return nil
}

// reorder reassigns the order indices of the affected region: the backward
// set must precede the forward set; each set keeps its internal relative
// order.
func (g *Graph) reorder(fwd, bwd []int32) {
	sortByOrd(g.ord, fwd)
	sortByOrd(g.ord, bwd)
	pool := make([]int32, 0, len(fwd)+len(bwd))
	for _, n := range bwd {
		pool = append(pool, g.ord[n])
	}
	for _, n := range fwd {
		pool = append(pool, g.ord[n])
	}
	sortInt32(pool)
	i := 0
	for _, n := range bwd {
		g.ord[n] = pool[i]
		i++
	}
	for _, n := range fwd {
		g.ord[n] = pool[i]
		i++
	}
}

func sortByOrd(ord []int32, nodes []int32) {
	// Insertion sort: affected regions are typically tiny.
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		j := i - 1
		for j >= 0 && ord[nodes[j]] > ord[n] {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = n
	}
}

func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Order returns the current topological index of node n; edges always go
// from lower to higher index.
func (g *Graph) Order(n int32) int32 { return g.ord[n] }
