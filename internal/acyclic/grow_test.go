package acyclic

import (
	"runtime"
	"testing"

	"viper/internal/sat"
)

// TestTheoryGrow: growing the theory graph between solver rounds keeps
// existing edges and orders valid, places new nodes after the ordered
// prefix, and detects constant cycles through old and new nodes alike.
func TestTheoryGrow(t *testing.T) {
	th := NewEdgeTheory(2)
	if ok := th.InsertConstant(0, 1); !ok {
		t.Fatal("0→1 must insert")
	}
	th.Grow(4)
	if n := th.NumConstants(); n != 1 {
		t.Fatalf("constants after grow: %d", n)
	}
	// New nodes take the largest order indices: appended transactions sort
	// after everything already ordered.
	if th.Order(2) <= th.Order(1) || th.Order(3) <= th.Order(2) {
		t.Fatalf("new nodes not after existing: %d %d %d %d",
			th.Order(0), th.Order(1), th.Order(2), th.Order(3))
	}
	if ok := th.InsertConstant(1, 2); !ok {
		t.Fatal("1→2 must insert")
	}
	if ok := th.InsertConstant(2, 3); !ok {
		t.Fatal("2→3 must insert")
	}
	// 3→0 closes a cycle spanning pre- and post-grow nodes.
	if th.InsertConstant(3, 0) {
		t.Fatal("3→0 should close a constant cycle")
	}
	// Duplicate insertion of an existing constant stays a no-op success.
	if !th.InsertConstant(0, 1) {
		t.Fatal("duplicate constant must succeed")
	}
}

// TestTheoryGrowAcrossSolves: edge variables allocated before a Grow stay
// bound after it, and a solve over the grown graph sees both generations.
func TestTheoryGrowAcrossSolves(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(2)
	s.SetTheory(th)
	v01 := th.EdgeVar(s, 0, 1)
	s.AddClause(sat.PosLit(v01))
	if res := s.Solve(); res != sat.Sat {
		t.Fatalf("round 1: %v", res)
	}
	s.Relax()
	th.Grow(3)
	v12 := th.EdgeVar(s, 1, 2)
	v20 := th.EdgeVar(s, 2, 0)
	s.AddClause(sat.PosLit(v12))
	s.AddClause(sat.PosLit(v20))
	// 0→1→2→0 would be a cycle; all three required ⇒ Unsat.
	if res := s.Solve(); res != sat.Unsat {
		t.Fatalf("round 2: %v", res)
	}
}

// TestGraphReserve: after Reserve, inserting the reserved edges allocates
// nothing — no edge-trail growth and no adjacency list grown from nil —
// and a graph grown one node at a time keeps them all.
func TestGraphReserve(t *testing.T) {
	const n = 500
	g := NewGraph(0)
	for i := 1; i <= n; i++ {
		g.Grow(i)
	}
	var es []Edge
	for u := int32(0); u+1 < n; u++ {
		es = append(es, Edge{u, u + 1})
		if u+7 < n {
			es = append(es, Edge{u, u + 7})
		}
	}
	g.Reserve(len(es), func(i int) Edge { return es[i] })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range es { // all forward in the initial order: no reorder
		if g.AddEdge(e.From, e.To) != nil {
			t.Fatalf("edge %v closed a cycle", e)
		}
	}
	runtime.ReadMemStats(&after)
	if m := after.Mallocs - before.Mallocs; m != 0 {
		t.Fatalf("inserting %d reserved edges allocated %d times", len(es), m)
	}
	if g.NumNodes() != n || g.NumEdges() != len(es) || g.Order(n-1) != n-1 {
		t.Fatalf("%d nodes, %d edges, last order %d", g.NumNodes(), g.NumEdges(), g.Order(n-1))
	}
}
