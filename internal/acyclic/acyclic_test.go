package acyclic

import (
	"math/rand"
	"testing"

	"viper/internal/sat"
)

func TestAddEdgeSimpleCycle(t *testing.T) {
	g := NewGraph(3)
	if c := g.AddEdge(0, 1); c != nil {
		t.Fatalf("0→1 reported cycle %v", c)
	}
	if c := g.AddEdge(1, 2); c != nil {
		t.Fatalf("1→2 reported cycle %v", c)
	}
	c := g.AddEdge(2, 0)
	if c == nil {
		t.Fatal("2→0 should close a cycle")
	}
	// Cycle path must be 0..2 with consecutive edges, closed by 2→0.
	if c[0] != 0 || c[len(c)-1] != 2 {
		t.Fatalf("cycle path = %v, want starts at 0, ends at 2", c)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("rejected edge was inserted; NumEdges=%d", g.NumEdges())
	}
}

func TestSelfLoop(t *testing.T) {
	g := NewGraph(1)
	if c := g.AddEdge(0, 0); len(c) != 1 || c[0] != 0 {
		t.Fatalf("self loop cycle = %v", c)
	}
}

func TestRemoveLastEdgeReopens(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	if c := g.AddEdge(1, 0); c == nil {
		t.Fatal("cycle expected")
	}
	g.RemoveLastEdge() // removes 0→1
	if c := g.AddEdge(1, 0); c != nil {
		t.Fatalf("after removal 1→0 should be fine, got %v", c)
	}
}

func TestOrderRespectedAfterReorder(t *testing.T) {
	g := NewGraph(4)
	// Insert edges forcing a reorder: 3→2, 2→1, 1→0.
	edges := [][2]int32{{3, 2}, {2, 1}, {1, 0}}
	for _, e := range edges {
		if c := g.AddEdge(e[0], e[1]); c != nil {
			t.Fatalf("edge %v reported cycle %v", e, c)
		}
	}
	for _, e := range edges {
		if g.Order(e[0]) >= g.Order(e[1]) {
			t.Fatalf("order violated for %v: %d >= %d", e, g.Order(e[0]), g.Order(e[1]))
		}
	}
}

// validCyclePath verifies that a reported cycle path actually consists of
// inserted edges, with the rejected edge closing it.
func validCyclePath(t *testing.T, have map[[2]int32]bool, path []int32, closing [2]int32) {
	t.Helper()
	if path[len(path)-1] != closing[0] || path[0] != closing[1] {
		t.Fatalf("cycle %v not closed by %v", path, closing)
	}
	for i := 0; i+1 < len(path); i++ {
		if !have[[2]int32{path[i], path[i+1]}] {
			t.Fatalf("cycle %v uses non-edge %d→%d", path, path[i], path[i+1])
		}
	}
}

// TestRandomAgainstBatch inserts random edges and cross-checks incremental
// cycle detection against the batch DFS checker at every step, including
// random rollbacks.
func TestRandomAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(20)
		g := NewGraph(n)
		out := make([][]int32, n)
		have := make(map[[2]int32]bool)
		var trail [][2]int32
		for step := 0; step < 120; step++ {
			if len(trail) > 0 && rng.Intn(5) == 0 {
				// rollback
				last := trail[len(trail)-1]
				trail = trail[:len(trail)-1]
				g.RemoveLastEdge()
				delete(have, last)
				lst := out[last[0]]
				out[last[0]] = lst[:len(lst)-1]
				continue
			}
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v || have[[2]int32{u, v}] {
				continue
			}
			// Would adding u→v create a cycle? Batch oracle: path v⇝u.
			out[u] = append(out[u], v)
			oracle := FindCycle(n, out)
			cyc := g.AddEdge(u, v)
			if (cyc != nil) != (oracle != nil) {
				t.Fatalf("iter %d step %d: incremental=%v oracle=%v for edge %d→%d",
					iter, step, cyc, oracle, u, v)
			}
			if cyc != nil {
				out[u] = out[u][:len(out[u])-1] // graph rejected it
				validCyclePath(t, have, cyc, [2]int32{u, v})
				continue
			}
			have[[2]int32{u, v}] = true
			trail = append(trail, [2]int32{u, v})
			// Order invariant: every edge goes forward.
			for e := range have {
				if g.Order(e[0]) >= g.Order(e[1]) {
					t.Fatalf("order invariant broken for %v", e)
				}
			}
		}
	}
}

func TestFindCycleAcyclic(t *testing.T) {
	out := [][]int32{{1, 2}, {2}, {3}, nil}
	if c := FindCycle(4, out); c != nil {
		t.Fatalf("acyclic graph reported cycle %v", c)
	}
}

func TestFindCycleReportsValidCycle(t *testing.T) {
	out := [][]int32{{1}, {2}, {0, 3}, nil}
	c := FindCycle(4, out)
	if c == nil {
		t.Fatal("cycle not found")
	}
	has := func(u, v int32) bool {
		for _, w := range out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for i := range c {
		if !has(c[i], c[(i+1)%len(c)]) {
			t.Fatalf("cycle %v uses non-edge %d→%d", c, c[i], c[(i+1)%len(c)])
		}
	}
}

func TestTopoBFSOrdersAndTieBreaks(t *testing.T) {
	// 0→2, 1→2, 2→3; layer {0,1} should be tie-broken descending by id.
	out := [][]int32{{2}, {2}, {3}, nil}
	order, ok := TopoBFS(4, out, func(a, b int32) bool { return a > b })
	if !ok {
		t.Fatal("cycle reported on DAG")
	}
	want := []int32{1, 0, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoBFSDetectsCycle(t *testing.T) {
	out := [][]int32{{1}, {0}}
	if _, ok := TopoBFS(2, out, nil); ok {
		t.Fatal("cycle not detected")
	}
}

// solveEdges builds a solver + theory over given known edges and XOR
// constraint pairs, mirroring the paper's encoding, and returns the result.
// The known edges go in as theory constants, or with batch set as one
// guarded batch assumed for the solve.
func solveEdges(n int, known [][2]int32, cons [][2][2]int32, batch bool) sat.Result {
	s := sat.New()
	th := NewEdgeTheory(n)
	s.SetTheory(th)
	var assume []sat.Lit
	if batch {
		edges := make([]Edge, len(known))
		for i, e := range known {
			edges[i] = Edge{e[0], e[1]}
		}
		assume = append(assume, sat.PosLit(th.AddBatch(s, edges)))
	} else {
		for _, e := range known {
			if !th.InsertConstant(e[0], e[1]) {
				return sat.Unsat
			}
		}
	}
	for _, c := range cons {
		a := th.EdgeVar(s, c[0][0], c[0][1])
		b := th.EdgeVar(s, c[1][0], c[1][1])
		s.AddXOR(sat.PosLit(a), sat.PosLit(b))
	}
	return s.SolveAssuming(assume...)
}

func TestEdgeTheoryWithSolver(t *testing.T) {
	for _, batch := range []bool{false, true} {
		// Known path 0→1→2 plus constraint ⟨2→3, 3→0⟩: choosing 3→0 is
		// fine, choosing 2→3 is fine; SAT either way.
		res := solveEdges(4, [][2]int32{{0, 1}, {1, 2}}, [][2][2]int32{{{2, 3}, {3, 0}}}, batch)
		if res != sat.Sat {
			t.Fatalf("batch=%v: res = %v, want Sat", batch, res)
		}
		// Known cycle via forced edges: UNSAT.
		res = solveEdges(2, [][2]int32{{0, 1}, {1, 0}}, nil, batch)
		if res != sat.Unsat {
			t.Fatalf("batch=%v: forced cycle res = %v, want Unsat", batch, res)
		}
		// Two constraints whose four choices all close a cycle with the
		// known path 0→1→2→3→4.
		res = solveEdges(5,
			[][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
			[][2][2]int32{{{2, 0}, {4, 0}}, {{4, 1}, {2, 1}}}, batch)
		if res != sat.Unsat {
			t.Fatalf("batch=%v: all-choices-cycle res = %v, want Unsat", batch, res)
		}
	}
}

func TestEdgeTheorySharedEdgeVar(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(3)
	s.SetTheory(th)
	a := th.EdgeVar(s, 0, 1)
	b := th.EdgeVar(s, 0, 1)
	if a != b {
		t.Fatal("same edge produced two variables")
	}
	if th.NumEdgeVars() != 1 {
		t.Fatalf("NumEdgeVars = %d", th.NumEdgeVars())
	}
	if _, ok := th.Lookup(0, 1); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := th.Lookup(1, 0); ok {
		t.Fatal("Lookup found unregistered edge")
	}
}

func TestWeightedTheoryForbidsLightCycles(t *testing.T) {
	// Cycle of weight 1 (one anti-dep): forbidden with maxW=1.
	s := sat.New()
	th := NewWeightedTheory(3, 1)
	s.SetTheory(th)
	s.AddClause(sat.PosLit(th.EdgeVar(s, 0, 1, 0)))
	s.AddClause(sat.PosLit(th.EdgeVar(s, 1, 2, 0)))
	s.AddClause(sat.PosLit(th.EdgeVar(s, 2, 0, 1)))
	if res := s.Solve(); res != sat.Unsat {
		t.Fatalf("weight-1 cycle: %v, want Unsat", res)
	}
}

func TestWeightedTheoryAllowsHeavyCycles(t *testing.T) {
	// Cycle of weight 2 (two anti-deps): allowed under Adya SI.
	s := sat.New()
	th := NewWeightedTheory(3, 1)
	s.SetTheory(th)
	s.AddClause(sat.PosLit(th.EdgeVar(s, 0, 1, 1)))
	s.AddClause(sat.PosLit(th.EdgeVar(s, 1, 2, 0)))
	s.AddClause(sat.PosLit(th.EdgeVar(s, 2, 0, 1)))
	if res := s.Solve(); res != sat.Sat {
		t.Fatalf("weight-2 cycle: %v, want Sat", res)
	}
}

func TestWeightedTheoryBacktracks(t *testing.T) {
	// Constraint: pick 2→0 (weight 0, closes weight-0 cycle → conflict) or
	// 2→3 (fine). The solver must learn and choose 2→3.
	s := sat.New()
	th := NewWeightedTheory(4, 1)
	s.SetTheory(th)
	s.AddClause(sat.PosLit(th.EdgeVar(s, 0, 1, 0)))
	s.AddClause(sat.PosLit(th.EdgeVar(s, 1, 2, 0)))
	a := th.EdgeVar(s, 2, 0, 0)
	b := th.EdgeVar(s, 2, 3, 0)
	s.AddXOR(sat.PosLit(a), sat.PosLit(b))
	if res := s.Solve(); res != sat.Sat {
		t.Fatalf("res = %v, want Sat", res)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model picked cyclic edge: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestGrowIdempotent(t *testing.T) {
	g := NewGraph(2)
	g.Grow(1)
	g.Grow(5)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if c := g.AddEdge(0, 4); c != nil {
		t.Fatalf("cycle %v", c)
	}
}

func TestTopoPriorityRespectsEdgesAndPriority(t *testing.T) {
	// 0→3, 1→3; priorities (descending id) decide among available nodes.
	out := [][]int32{{3}, {3}, nil, nil}
	order, ok := TopoPriority(4, out, func(a, b int32) bool { return a > b })
	if !ok {
		t.Fatal("cycle reported on DAG")
	}
	want := []int32{2, 1, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoPriorityDetectsCycle(t *testing.T) {
	out := [][]int32{{1}, {0}}
	if _, ok := TopoPriority(2, out, func(a, b int32) bool { return a < b }); ok {
		t.Fatal("cycle not detected")
	}
}

func TestTopoPriorityMatchesTopoBFSValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		n := 3 + rng.Intn(30)
		out := make([][]int32, n)
		// random DAG: edges only low→high id
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					out[u] = append(out[u], int32(v))
				}
			}
		}
		order, ok := TopoPriority(n, out, func(a, b int32) bool { return a < b })
		if !ok {
			t.Fatal("DAG reported cyclic")
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := range out {
			for _, v := range out[u] {
				if pos[u] >= pos[int(v)] {
					t.Fatalf("edge %d→%d violated", u, v)
				}
			}
		}
	}
}

// TestConstantEdges covers the InsertConstant API, including the dual
// case where the same edge is both a constant and a constraint variable
// (the conflict clause must not emit a literal for the constant).
func TestConstantEdges(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(4)
	s.SetTheory(th)
	if !th.InsertConstant(0, 1) || !th.InsertConstant(1, 2) {
		t.Fatal("constants rejected")
	}
	if !th.InsertConstant(0, 1) { // idempotent
		t.Fatal("duplicate constant rejected")
	}
	// Edge 1→2 also appears as a constraint alternative (dual edge), and
	// 2→0 closes a cycle through both constants.
	dual := th.EdgeVar(s, 1, 2)
	closing := th.EdgeVar(s, 2, 0)
	other := th.EdgeVar(s, 2, 3)
	s.AddXOR(sat.PosLit(closing), sat.PosLit(other))
	_ = dual // left unassigned: the constant must justify 1→2 on its own
	if res := s.Solve(); res != sat.Sat {
		t.Fatalf("res = %v, want Sat (pick 2→3)", res)
	}
	if s.Value(closing) || !s.Value(other) {
		t.Fatal("solver picked the cyclic closing edge")
	}
}

func TestConstantCycleDetected(t *testing.T) {
	th := NewEdgeTheory(2)
	if !th.InsertConstant(0, 1) {
		t.Fatal("first constant rejected")
	}
	if th.InsertConstant(1, 0) {
		t.Fatal("constant cycle not detected")
	}
}
