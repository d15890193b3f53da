package sat

import "testing"

// TestRelaxResolve: after a Sat answer, Relax + new clauses + Solve is the
// incremental mode — learned state persists, the verdict tracks the
// growing formula.
func TestRelaxResolve(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if res := s.Solve(); res != Sat {
		t.Fatalf("round 1: %v", res)
	}
	s.Relax()
	s.AddClause(NegLit(a))
	if res := s.Solve(); res != Sat {
		t.Fatalf("round 2: %v", res)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("round 2 model: a=%v b=%v", s.Value(a), s.Value(b))
	}
	// New variables can join between rounds.
	s.Relax()
	c := s.NewVar()
	s.AddClause(NegLit(b), PosLit(c))
	if res := s.Solve(); res != Sat {
		t.Fatalf("round 3: %v", res)
	}
	if !s.Value(c) {
		t.Fatalf("round 3 model: c=%v", s.Value(c))
	}
	// Clause addition is monotone: once Unsat, always Unsat.
	s.Relax()
	s.AddClause(NegLit(c))
	if res := s.Solve(); res != Unsat {
		t.Fatalf("round 4: %v", res)
	}
	s.Relax()
	if res := s.Solve(); res != Unsat {
		t.Fatalf("round 5 (after Unsat): %v", res)
	}
}

// TestSolveAssuming: Unsat under assumptions does not condemn the formula
// — Okay stays true and re-solving with weaker (or no) assumptions can
// still answer Sat; a genuine refutation flips Okay permanently.
func TestSolveAssuming(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b)) // a ∨ b
	if res := s.SolveAssuming(NegLit(a), NegLit(b)); res != Unsat {
		t.Fatalf("under ¬a ¬b: %v", res)
	}
	if !s.Okay() {
		t.Fatal("assumption-Unsat poisoned the solver")
	}
	s.Relax()
	if res := s.SolveAssuming(NegLit(a)); res != Sat {
		t.Fatalf("under ¬a: %v", res)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model under ¬a: a=%v b=%v", s.Value(a), s.Value(b))
	}
	s.Relax()
	if res := s.SolveAssuming(); res != Sat {
		t.Fatalf("no assumptions: %v", res)
	}
	// Retiring an assumption by asserting its negation as a unit clause
	// (what a failed guarded pass does with its guard) keeps the solver
	// usable: a fresh guard forcing b alone is satisfiable.
	g := s.NewVar()
	s.Relax()
	s.AddClause(NegLit(g), NegLit(a))
	s.AddClause(NegLit(g), NegLit(b))
	if res := s.SolveAssuming(PosLit(g)); res != Unsat || !s.Okay() {
		t.Fatalf("under guard g: %v, okay %v", res, s.Okay())
	}
	s.Relax()
	if !s.AddClause(NegLit(g)) {
		t.Fatal("retiring g refuted the formula")
	}
	g2 := s.NewVar()
	s.AddClause(NegLit(g2), NegLit(a))
	if res := s.SolveAssuming(PosLit(g2)); res != Sat || s.Value(a) || !s.Value(b) {
		t.Fatalf("under guard g2: %v (a=%v b=%v)", res, s.Value(a), s.Value(b))
	}
	// A real refutation is permanent regardless of how it was reached.
	s.Relax()
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b))
	if res := s.SolveAssuming(PosLit(a)); res != Unsat {
		t.Fatal("expected Unsat")
	}
	// ¬a is now a unit clause: the assumption a is falsified at level 0,
	// which alone proves nothing about the formula — but ¬a∧¬b against a∨b
	// is found Unsat by plain Solve, permanently.
	s.Relax()
	if res := s.Solve(); res != Unsat {
		t.Fatal("formula should be genuinely Unsat")
	}
	if s.Okay() {
		t.Fatal("Okay should be false after a real refutation")
	}
}
