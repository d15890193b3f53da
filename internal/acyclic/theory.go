package acyclic

import "viper/internal/sat"

// EdgeTheory plugs incremental acyclicity into the SAT solver: each
// registered edge is bound to a boolean variable, and the theory forbids
// any assignment whose true edges contain a directed cycle. This is the
// acyclic(G) predicate of MonoSAT that the paper's encoding relies on
// (Figure 4 line 23).
//
// Besides variable edges and constants, the theory holds at most one
// guarded batch (AddBatch): a set of edges present exactly while a guard
// variable is true. A caller assumes the guard for one SolveAssuming call
// to assert the batch for that call only, then retires it (Retire).
type EdgeTheory struct {
	g      *Graph
	edgeOf []Edge    // dense, indexed by sat.Var; From == -1 marks non-edge vars
	on     []bool    // dense, indexed by sat.Var: the variable's edge is inserted
	varOf  EdgeIndex // edge → its sat.Var
	consts EdgeSet   // unconditionally present edges
	trail  []sat.Var // vars whose edges are currently inserted (a guard stands for its batch)

	guard   sat.Var // guard of the live batch; -1 when there is none
	batch   []Edge  // the live batch's edges
	batchOn bool    // the batch is inserted (its guard is assigned true)

	// Conflicts counts theory conflicts (cycles found), for stats.
	Conflicts int64
}

// noEdge marks variables that carry no edge (e.g. constraint selectors).
var noEdge = Edge{From: -1, To: -1}

// NewEdgeTheory returns a theory over a graph with n nodes.
func NewEdgeTheory(n int) *EdgeTheory {
	return &EdgeTheory{g: NewGraph(n), guard: -1}
}

// edgeForVar returns the edge bound to v, if any.
func (t *EdgeTheory) edgeForVar(v sat.Var) (Edge, bool) {
	if int(v) >= len(t.edgeOf) {
		return noEdge, false
	}
	e := t.edgeOf[v]
	return e, e.From >= 0
}

// InsertConstant inserts an edge that is unconditionally present (a known
// edge of the polygraph): it participates in cycle detection but needs no
// SAT variable, keeping the solver's search space to the genuinely unknown
// edges. It returns false if the constants alone already contain a cycle
// (the instance is trivially unsatisfiable).
func (t *EdgeTheory) InsertConstant(u, v int32) bool {
	if t.consts.Has(u, v) {
		return true
	}
	if t.g.AddEdge(u, v) != nil {
		return false
	}
	t.consts.Add(u, v)
	return true
}

// ReserveConstants readies the theory for n more constants, the i-th
// being edge(i): the constant set is presized for them, and each node's
// adjacency for its degree among them (Graph.Reserve), so a caller about
// to insert a known graph pays for no rehashing and no adjacency growth.
func (t *EdgeTheory) ReserveConstants(n int, edge func(i int) Edge) {
	t.consts.Reserve(t.consts.Len() + n)
	t.g.Reserve(n, edge)
}

// Grow extends the theory graph to at least n nodes, for incremental use
// between Solve rounds: new nodes take the largest order indices, which is
// the right warm start for append-mostly histories (new transactions tend
// to come after everything already ordered). Existing edges, constants,
// and variables are untouched.
func (t *EdgeTheory) Grow(n int) { t.g.Grow(n) }

// SeedOrder warm-starts the maintained topological order (see
// Graph.SetOrder); call before solving.
func (t *EdgeTheory) SeedOrder(pos []int32) { t.g.SetOrder(pos) }

// EdgeVar returns the boolean variable bound to edge u→v, allocating one
// from s if needed. All occurrences of the same directed edge share a
// variable, so the theory never sees duplicate insertions. The edge must
// not be a self-loop.
func (t *EdgeTheory) EdgeVar(s *sat.Solver, u, v int32) sat.Var {
	if w, ok := t.varOf.Get(u, v); ok {
		return sat.Var(w)
	}
	w := s.NewVar()
	t.varOf.Add(u, v, int32(w))
	for int(w) >= len(t.edgeOf) {
		t.edgeOf = append(t.edgeOf, noEdge)
		t.on = append(t.on, false)
	}
	t.edgeOf[w] = Edge{u, v}
	return w
}

// Lookup returns the variable for edge u→v if one was allocated.
func (t *EdgeTheory) Lookup(u, v int32) (sat.Var, bool) {
	w, ok := t.varOf.Get(u, v)
	return sat.Var(w), ok
}

// NumEdgeVars returns the number of distinct symbolic edges.
func (t *EdgeTheory) NumEdgeVars() int { return t.varOf.Len() }

// NumConstants returns the number of distinct constant edges inserted.
func (t *EdgeTheory) NumConstants() int { return t.consts.Len() }

// Reorders reports the underlying graph's order-maintenance work (see
// Graph.Reorders).
func (t *EdgeTheory) Reorders() (count, movedNodes int64) { return t.g.Reorders() }

// AddBatch registers edges as a guarded batch and returns its guard, a
// fresh variable of s. While the guard is true the batch's edges are in
// the graph; assigning the guard inserts them all at once, and every
// conflict clause whose cycle runs through a batch edge carries ¬guard.
// Learned clauses therefore hold without the batch, and an Unsat that
// assumed the guard leaves s.Okay() true unless the refutation used no
// batch edge. The theory keeps edges (the caller must not modify it)
// until Retire ends the batch; at most one batch may be live. An edge
// that is also a constant is inserted twice, which is harmless: cycles
// through it are explained by the constant. Each node's adjacency is
// reserved for its degree in the batch here, once, however often the
// guard is assigned.
func (t *EdgeTheory) AddBatch(s *sat.Solver, edges []Edge) sat.Var {
	if t.guard >= 0 {
		panic("acyclic: AddBatch while a batch is live")
	}
	t.g.Reserve(len(edges), func(i int) Edge { return edges[i] })
	t.batch = edges
	t.guard = s.NewVar()
	return t.guard
}

// Retire ends the live batch, if any: it backtracks s to level 0, adds
// the unit clause ¬guard (which satisfies, and so disables, every clause
// learned from a batch edge), and frees the batch. It returns false if s
// became unsatisfiable.
func (t *EdgeTheory) Retire(s *sat.Solver) bool {
	if t.guard < 0 {
		return s.Okay()
	}
	s.Relax()
	ok := s.AddClause(sat.NegLit(t.guard))
	t.guard, t.batch = -1, nil
	return ok
}

// Assign implements sat.Theory. A positive assignment of an edge variable
// inserts the edge, and of the guard the whole batch; if that closes a
// cycle the conflict clause "some edge on the cycle must be false" is
// returned.
func (t *EdgeTheory) Assign(l sat.Lit) []sat.Lit {
	if l.Sign() {
		return nil // edge set to false: nothing to do
	}
	v := l.Var()
	if v == t.guard {
		return t.insertBatch(l)
	}
	e, ok := t.edgeForVar(v)
	if !ok {
		return nil // not an edge variable
	}
	cyclePath := t.g.AddEdge(e.From, e.To)
	if cyclePath == nil {
		t.trail = append(t.trail, v)
		t.on[v] = true
		return nil
	}
	t.Conflicts++
	return t.explain(sat.NegLit(v), cyclePath)
}

// insertBatch inserts the live batch. On a cycle it removes the edges it
// already inserted and returns ¬guard plus the variable edges on the
// cycle.
func (t *EdgeTheory) insertBatch(l sat.Lit) []sat.Lit {
	t.batchOn = true
	for i, e := range t.batch {
		cyclePath := t.g.AddEdge(e.From, e.To)
		if cyclePath == nil {
			continue
		}
		t.Conflicts++
		confl := t.explain(sat.NegLit(t.guard), cyclePath)
		for ; i > 0; i-- {
			t.g.RemoveLastEdge()
		}
		t.batchOn = false
		return confl
	}
	t.trail = append(t.trail, l.Var())
	return nil
}

// explain turns a cycle into a conflict clause: closing (the negation of
// the literal whose edge closes the cycle) plus, for each edge of the node
// path v..u, the literal that made it present. Constants contribute
// nothing; a true edge variable contributes its negation; anything else in
// the graph is a batch edge and contributes ¬guard, once.
func (t *EdgeTheory) explain(closing sat.Lit, cyclePath []int32) []sat.Lit {
	confl := make([]sat.Lit, 0, len(cyclePath))
	confl = append(confl, closing)
	guarded := closing == sat.NegLit(t.guard)
	for i := 0; i+1 < len(cyclePath); i++ {
		u, v := cyclePath[i], cyclePath[i+1]
		if t.consts.Has(u, v) {
			continue // a constant justifies this step regardless of any var
		}
		if ev, ok := t.varOf.Get(u, v); ok && t.on[ev] {
			confl = append(confl, sat.NegLit(sat.Var(ev)))
			continue
		}
		if !t.batchOn {
			// Every other inserted edge came through EdgeVar or the batch.
			panic("acyclic: cycle through unregistered edge")
		}
		if !guarded {
			confl = append(confl, sat.NegLit(t.guard))
			guarded = true
		}
	}
	return confl
}

// Undo implements sat.Theory.
func (t *EdgeTheory) Undo(l sat.Lit) {
	if l.Sign() {
		return
	}
	v := l.Var()
	if n := len(t.trail); n == 0 || t.trail[n-1] != v {
		return // the assignment conflicted and inserted nothing
	}
	t.trail = t.trail[:len(t.trail)-1]
	if v == t.guard {
		for range t.batch {
			t.g.RemoveLastEdge()
		}
		t.batchOn = false
		return
	}
	t.g.RemoveLastEdge()
	t.on[v] = false
}

// Check implements sat.Theory. Acyclicity is enforced eagerly in Assign,
// so the final check always passes.
func (t *EdgeTheory) Check() []sat.Lit { return nil }

// Order exposes the current topological index of a node, used by the model
// extraction to produce a witness schedule.
func (t *EdgeTheory) Order(n int32) int32 { return t.g.Order(n) }
