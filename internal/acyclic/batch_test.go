package acyclic

import (
	"math/rand"
	"sort"
	"testing"

	"viper/internal/sat"
)

// sameLits reports whether two clauses hold the same literals.
func sameLits(got, want []sat.Lit) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]sat.Lit(nil), got...)
	w := append([]sat.Lit(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// TestBatchEdgeClosingCycle: a batch edge that closes a cycle yields
// ¬guard plus the true variable edges on the cycle, nothing for constants
// or for true variables off the cycle, and the partial batch is rolled
// back so the graph holds exactly what it held before.
func TestBatchEdgeClosingCycle(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(5)
	th.InsertConstant(1, 2)
	a := th.EdgeVar(s, 0, 1)   // on the cycle
	off := th.EdgeVar(s, 4, 0) // true, but off the cycle
	for _, v := range []sat.Var{a, off} {
		if c := th.Assign(sat.PosLit(v)); c != nil {
			t.Fatalf("var %d: unexpected conflict %v", v, c)
		}
	}
	before := th.g.NumEdges()
	// 2→3 inserts, then 3→0 closes 0→1→2→3→0.
	g := th.AddBatch(s, []Edge{{2, 3}, {3, 0}})
	confl := th.Assign(sat.PosLit(g))
	if want := []sat.Lit{sat.NegLit(g), sat.NegLit(a)}; !sameLits(confl, want) {
		t.Fatalf("conflict = %v, want %v", confl, want)
	}
	if n := th.g.NumEdges(); n != before {
		t.Fatalf("partial batch not rolled back: %d edges, want %d", n, before)
	}
	// The failed guard inserted nothing, so undoing it removes nothing.
	th.Undo(sat.PosLit(g))
	if n := th.g.NumEdges(); n != before {
		t.Fatalf("undo of a failed guard removed edges: %d, want %d", n, before)
	}
	// With the batch out of the graph the closing path is gone.
	if c := th.Assign(sat.PosLit(th.EdgeVar(s, 3, 0))); c != nil {
		t.Fatalf("3→0 alone conflicts: %v", c)
	}
}

// TestVarEdgeClosingCycleThroughBatch: a variable edge that closes a cycle
// running through batch edges gets ¬guard in its clause (once, however
// many batch edges the cycle uses).
func TestVarEdgeClosingCycleThroughBatch(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(4)
	a := th.EdgeVar(s, 0, 1)
	if c := th.Assign(sat.PosLit(a)); c != nil {
		t.Fatal(c)
	}
	g := th.AddBatch(s, []Edge{{1, 2}, {2, 3}})
	if c := th.Assign(sat.PosLit(g)); c != nil {
		t.Fatalf("batch insertion conflicts: %v", c)
	}
	closing := th.EdgeVar(s, 3, 0)
	confl := th.Assign(sat.PosLit(closing))
	want := []sat.Lit{sat.NegLit(closing), sat.NegLit(a), sat.NegLit(g)}
	if !sameLits(confl, want) {
		t.Fatalf("conflict = %v, want %v", confl, want)
	}
}

// TestBatchEdgeAttribution: an edge present several ways is explained by
// the weakest reason available — nothing when it is a constant, its own
// variable when that is true, and ¬guard only when the batch alone holds
// it in the graph.
func TestBatchEdgeAttribution(t *testing.T) {
	cases := []struct {
		name     string
		constant bool // 1→2 is a constant
		varOn    bool // 1→2's variable is true
		wantVar  bool // the clause names 1→2's variable
		wantG    bool // the clause names ¬guard
	}{
		{"batch+constant+variable", true, true, false, false},
		{"batch+constant", true, false, false, false},
		{"batch+true variable", false, true, true, false},
		{"batch+unassigned variable", false, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sat.New()
			th := NewEdgeTheory(3)
			th.InsertConstant(0, 1)
			if tc.constant {
				th.InsertConstant(1, 2)
			}
			dual := th.EdgeVar(s, 1, 2)
			if tc.varOn {
				if c := th.Assign(sat.PosLit(dual)); c != nil {
					t.Fatal(c)
				}
			}
			g := th.AddBatch(s, []Edge{{1, 2}})
			if c := th.Assign(sat.PosLit(g)); c != nil {
				t.Fatal(c)
			}
			closing := th.EdgeVar(s, 2, 0)
			want := []sat.Lit{sat.NegLit(closing)}
			if tc.wantVar {
				want = append(want, sat.NegLit(dual))
			}
			if tc.wantG {
				want = append(want, sat.NegLit(g))
			}
			if confl := th.Assign(sat.PosLit(closing)); !sameLits(confl, want) {
				t.Fatalf("conflict = %v, want %v", confl, want)
			}
		})
	}
}

// TestBatchUndoRemovesExactlyTheBatch: undoing the guard removes the
// batch's edges and nothing else, in trail order with the variable edges
// around it.
func TestBatchUndoRemovesExactlyTheBatch(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(6)
	th.InsertConstant(4, 5)
	before := th.EdgeVar(s, 0, 1)
	if c := th.Assign(sat.PosLit(before)); c != nil {
		t.Fatal(c)
	}
	// 4→5 is also a constant; the batch inserts its own copy.
	g := th.AddBatch(s, []Edge{{1, 2}, {4, 5}, {2, 3}})
	base := th.g.NumEdges()
	if c := th.Assign(sat.PosLit(g)); c != nil {
		t.Fatal(c)
	}
	if n := th.g.NumEdges(); n != base+3 {
		t.Fatalf("batch inserted %d edges, want 3", n-base)
	}
	after := th.EdgeVar(s, 3, 4)
	if c := th.Assign(sat.PosLit(after)); c != nil {
		t.Fatal(c)
	}
	th.Undo(sat.PosLit(after))
	th.Undo(sat.PosLit(g))
	if n := th.g.NumEdges(); n != base {
		t.Fatalf("after undo: %d edges, want %d", n, base)
	}
	// 1→2 left with the batch, so 2→0 closes nothing; 0→1 is still in,
	// and so is the constant 4→5.
	if c := th.Assign(sat.PosLit(th.EdgeVar(s, 2, 0))); c != nil {
		t.Fatalf("batch edge survived undo: %v", c)
	}
	if th.InsertConstant(5, 4) {
		t.Fatal("constant 4→5 was removed with the batch")
	}
	if c := th.Assign(sat.PosLit(th.EdgeVar(s, 1, 0))); c == nil {
		t.Fatal("variable edge 0→1 was removed with the batch")
	}
}

// TestBatchUnsatKeepsSolverUsable: Unsat that needs the batch leaves
// Okay() true; after Retire the same solver answers later passes, a new
// batch included; a refutation that uses no batch edge turns Okay() false
// even while a guard is assumed.
func TestBatchUnsatKeepsSolverUsable(t *testing.T) {
	s := sat.New()
	th := NewEdgeTheory(4)
	s.SetTheory(th)
	a := th.EdgeVar(s, 1, 2)
	b := th.EdgeVar(s, 3, 0)
	s.AddXOR(sat.PosLit(a), sat.PosLit(b))

	// 2→1 rules out a, 0→3 rules out b: Unsat, but only under the batch.
	g := th.AddBatch(s, []Edge{{2, 1}, {0, 3}})
	if res := s.SolveAssuming(sat.PosLit(g)); res != sat.Unsat {
		t.Fatalf("pass 1: %v, want Unsat", res)
	}
	if !s.Okay() {
		t.Fatal("Unsat under the guard poisoned the solver")
	}
	if !th.Retire(s) {
		t.Fatal("retiring the guard made the solver Unsat")
	}

	// Pass 2: a smaller batch; only b remains possible.
	g2 := th.AddBatch(s, []Edge{{2, 1}})
	if res := s.SolveAssuming(sat.PosLit(g2)); res != sat.Sat {
		t.Fatalf("pass 2: %v, want Sat", res)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("pass 2 model: a=%v b=%v", s.Value(a), s.Value(b))
	}
	th.Retire(s)

	// Constants now rule out both sides; the batch is irrelevant, so the
	// Unsat is a refutation of the formula itself.
	th.InsertConstant(2, 1)
	th.InsertConstant(0, 3)
	g3 := th.AddBatch(s, []Edge{{1, 3}})
	if res := s.SolveAssuming(sat.PosLit(g3)); res != sat.Unsat {
		t.Fatalf("pass 3: %v, want Unsat", res)
	}
	if s.Okay() {
		t.Fatal("a refutation that used no batch edge left Okay() true")
	}
}

// TestGuardedBatchMatchesConstants: on random constraint systems,
// asserting the known edges as a guarded batch gives the same verdict as
// inserting them as constants; when the batch is to blame,
// retiring it leaves exactly the verdict of the constraints alone, and
// Okay() turns false only when the constraints alone are unsatisfiable.
func TestGuardedBatchMatchesConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(8)
		var known [][2]int32
		var cons [][2][2]int32
		for i := 0; i < rng.Intn(2*n); i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				known = append(known, [2]int32{u, v})
			}
		}
		for i := 0; i < rng.Intn(n); i++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			c, d := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a != b && c != d && [2]int32{a, b} != [2]int32{c, d} {
				cons = append(cons, [2][2]int32{{a, b}, {c, d}})
			}
		}
		constants := solveEdges(n, known, cons, false)
		alone := solveEdges(n, nil, cons, false)

		s := sat.New()
		th := NewEdgeTheory(n)
		s.SetTheory(th)
		for _, c := range cons {
			s.AddXOR(sat.PosLit(th.EdgeVar(s, c[0][0], c[0][1])), sat.PosLit(th.EdgeVar(s, c[1][0], c[1][1])))
		}
		edges := make([]Edge, len(known))
		for i, e := range known {
			edges[i] = Edge{e[0], e[1]}
		}
		g := th.AddBatch(s, edges)
		if res := s.SolveAssuming(sat.PosLit(g)); res != constants {
			t.Fatalf("iter %d: batch %v, constants %v (known=%v cons=%v)", iter, res, constants, known, cons)
		}
		if constants != sat.Unsat {
			continue
		}
		if !s.Okay() && alone != sat.Unsat {
			t.Fatalf("iter %d: Okay() false but the constraints alone are %v", iter, alone)
		}
		th.Retire(s)
		if res := s.Solve(); res != alone {
			t.Fatalf("iter %d: after retire %v, constraints alone %v", iter, res, alone)
		}
	}
}
