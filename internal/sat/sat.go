// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with a pluggable theory interface, standing in for MonoSAT in the
// paper: viper only needs SAT modulo one monotonic theory, graph
// acyclicity, which package acyclic provides on top of this solver.
//
// The solver is a conventional MiniSAT-family design: two-watched-literal
// propagation, first-UIP conflict analysis with clause minimization, VSIDS
// variable activities, phase saving, Luby restarts, and activity-driven
// learned-clause deletion. Theories participate through the Theory
// interface: the solver streams every assignment on the trail to the
// theory, and the theory may veto an assignment by returning a conflict
// clause, which enters the normal learning machinery.
package sat

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Var is a 0-based propositional variable.
type Var int32

// Lit is a literal: variable 2*v encodes v, 2*v+1 encodes ¬v.
type Lit int32

// LitUndef is the sentinel "no literal".
const LitUndef Lit = -1

// MkLit constructs the literal for v, negated if neg.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String implements fmt.Stringer.
func (l Lit) String() string {
	if l == LitUndef {
		return "⊥"
	}
	if l.Sign() {
		return fmt.Sprintf("¬x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Result is the outcome of Solve.
type Result int8

const (
	// Unknown means the solver gave up (deadline or conflict budget).
	Unknown Result = iota
	// Sat means a satisfying assignment was found (see Value).
	Sat
	// Unsat means the formula (with its theory) is unsatisfiable.
	Unsat
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Theory is a decision procedure cooperating with the SAT search (the role
// MonoSAT's graph theories play in the paper).
//
// The solver calls Assign for every literal that becomes true on the trail,
// in trail order, after boolean propagation has quiesced. If the assignment
// is theory-inconsistent, Assign returns a non-nil conflict clause: a set
// of literals, all currently false, whose disjunction is theory-valid
// (e.g. "at least one edge of this cycle must be absent"). The solver backs
// off assignments in reverse trail order via Undo. Check runs once a full
// assignment is reached, for theories that verify lazily.
type Theory interface {
	Assign(l Lit) []Lit
	Undo(l Lit)
	Check() []Lit
}

// Stats counts solver work, exposed for the experiment harnesses.
type Stats struct {
	Vars         int
	Clauses      int
	Learnts      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	TheoryConfl  int64
}

type clause struct {
	lits   []Lit
	act    float32
	learnt bool
}

type watcher struct {
	c       *clause
	blocker Lit
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by Lit

	assigns  []int8 // per var
	polarity []bool // saved phase (true = last assigned false)
	level    []int32
	reason   []*clause
	activity []float64

	trail    []Lit
	trailLim []int
	qhead    int
	thHead   int

	order  varHeap
	varInc float64
	claInc float64

	seen []bool

	maxLearnts    float64
	learntsAdjust float64
	learntsCnt    float64

	ok          bool
	theory      Theory
	assumptions []Lit
	assumpFail  bool

	deadline   time.Time
	confBudget int64
	stop       atomic.Bool

	// Progress sampling (SetProgress). The hook runs synchronously on the
	// solving goroutine from inside search, so it may read Stats without
	// synchronization; it must not call back into the solver.
	progressFn   func()
	progressGap  time.Duration
	progressNext time.Time
	progressCnt  uint32

	// Stats accumulates counters across Solve calls.
	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1, claInc: 1}
}

// SetTheory attaches a theory; must be called before Solve.
func (s *Solver) SetTheory(t Theory) { s.theory = t }

// SetDeadline makes Solve return Unknown once the wall clock passes t.
// A zero time disables the deadline.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// SetConflictBudget makes Solve return Unknown after n conflicts
// (0 disables).
func (s *Solver) SetConflictBudget(n int64) { s.confBudget = n }

// SetProgress installs a sampling hook that search invokes roughly every
// interval (at most; sampling is also counter-gated so an idle check costs
// one int increment per search step). The hook runs synchronously on the
// solving goroutine — it may read s.Stats freely but must not mutate the
// solver. interval <= 0 selects a 250ms default; fn == nil uninstalls.
func (s *Solver) SetProgress(interval time.Duration, fn func()) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	s.progressFn = fn
	s.progressGap = interval
	s.progressNext = time.Now().Add(interval)
	s.progressCnt = 0
}

// progressTick fires the progress hook if its interval elapsed. Callers
// gate on s.progressFn != nil so the disabled path pays only that check;
// here a counter gate keeps time.Now off the common path too.
func (s *Solver) progressTick() {
	s.progressCnt++
	if s.progressCnt&127 != 0 {
		return
	}
	now := time.Now()
	if now.Before(s.progressNext) {
		return
	}
	s.progressNext = now.Add(s.progressGap)
	s.progressFn()
}

// Interrupt makes a concurrently running Solve return Unknown at its next
// budget check. Safe to call from another goroutine. The flag is sticky —
// an Interrupt delivered between solves is seen by the next Solve — until
// ClearInterrupt re-arms the instance.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt resets a previous Interrupt so the instance can solve
// again. Long-lived solvers (the warm incremental session) call this
// before each solve: a cancellation that stopped one audit must not
// condemn every later one.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// SetPhase sets the initial decision polarity of v: when the solver
// branches on v it will first try the given value. Encodings use this to
// bias the search toward an expected model (e.g. the schedule-consistent
// edge of each constraint), which collapses the conflict count on
// near-consistent instances.
func (s *Solver) SetPhase(v Var, value bool) { s.polarity[v] = !value }

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v, s.activity)
	s.Stats.Vars++
	return v
}

func (s *Solver) litValue(l Lit) int8 {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		return -a
	}
	return a
}

// Value returns the model value of v after a Sat result.
func (s *Solver) Value(v Var) bool { return s.assigns[v] == lTrue }

// ValueLit returns whether the literal is true in the model.
func (s *Solver) ValueLit(l Lit) bool { return s.litValue(l) == lTrue }

// AddClause adds a clause over the given literals. It returns false if the
// formula became trivially unsatisfiable. Clauses may only be added at
// decision level 0 (i.e. before or between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Sort, dedupe, drop false literals, detect tautology / satisfied.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Neg() {
			return true // tautology
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	s.Stats.Clauses++
	return true
}

// AddXOR adds the constraint a ⊕ b (exactly one of a, b true), used for
// BC-polygraph constraints.
func (s *Solver) AddXOR(a, b Lit) bool {
	return s.AddClause(a, b) && s.AddClause(a.Neg(), b.Neg())
}

// AddImplies adds a → b.
func (s *Solver) AddImplies(a, b Lit) bool { return s.AddClause(a.Neg(), b) }

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Neg(), c.lits[1].Neg()
	s.watches[w0] = append(s.watches[w0], watcher{c, c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c, c.lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(p Lit, from *clause) {
	v := p.Var()
	if p.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, p)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.c
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Neg()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if s.litValue(first) == lFalse {
				// Conflict: copy remaining watchers back and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return nil
}

// theorySync streams new trail entries to the theory; on a theory conflict
// it returns a transient conflict clause.
func (s *Solver) theorySync() *clause {
	if s.theory == nil {
		s.thHead = len(s.trail)
		return nil
	}
	for s.thHead < len(s.trail) {
		p := s.trail[s.thHead]
		s.thHead++
		if confl := s.theory.Assign(p); confl != nil {
			s.Stats.TheoryConfl++
			return &clause{lits: confl}
		}
	}
	return nil
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		p := s.trail[i]
		v := p.Var()
		if s.theory != nil && i < s.thHead {
			s.theory.Undo(p)
		}
		s.polarity[v] = p.Sign()
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insertIfAbsent(v, s.activity)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = lim
	if s.thHead > lim {
		s.thHead = lim
	}
}

func (s *Solver) varBumpActivity(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(v, s.activity)
}

func (s *Solver) claBumpActivity(c *clause) {
	c.act += float32(s.claInc)
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{LitUndef} // placeholder for asserting literal
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1
	for {
		if confl.learnt {
			s.claBumpActivity(confl)
		}
		start := 0
		if p != LitUndef {
			start = 1
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.varBumpActivity(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Clause minimization: drop literals whose reason is subsumed by the
	// rest of the learned clause (local minimization).
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.litRedundant(q) {
			out = append(out, q)
		}
	}
	learnt = out

	// Backjump level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, q := range learnt {
		s.seen[q.Var()] = false
	}
	return learnt, btLevel
}

// litRedundant reports whether q's reason clause is covered by literals
// already marked seen (one-step self-subsumption).
func (s *Solver) litRedundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == nil {
		return false
	}
	for _, l := range r.lits[1:] {
		v := l.Var()
		if !s.seen[v] && s.level[v] > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) recordLearnt(learnt []Lit) {
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], nil)
		return
	}
	c := &clause{lits: learnt, learnt: true}
	s.claBumpActivity(c)
	s.attach(c)
	s.learnts = append(s.learnts, c)
	s.Stats.Learnts++
	s.uncheckedEnqueue(learnt[0], c)
}

func (s *Solver) locked(c *clause) bool {
	v := c.lits[0].Var()
	return s.reason[v] == c && s.assigns[v] != lUndef
}

func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].act < s.learnts[j].act
	})
	// Keep locked clauses, binary clauses, and the more active half.
	var keep []*clause
	lim := len(s.learnts) / 2
	for i, c := range s.learnts {
		if s.locked(c) || len(c.lits) == 2 || i >= lim {
			keep = append(keep, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = keep
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.removeMin(s.activity)
		if !ok {
			return LitUndef
		}
		if s.assigns[v] == lUndef {
			s.Stats.Decisions++
			return MkLit(v, s.polarity[v])
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i >= int64(1)<<(k-1) && i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// search runs CDCL until a result, a restart (maxConflicts reached), or a
// budget stop. Returns (result, done).
func (s *Solver) search(maxConflicts int64) (Result, bool) {
	var conflicts int64
	for {
		if s.progressFn != nil {
			s.progressTick()
		}
		confl := s.propagate()
		if confl == nil {
			confl = s.theorySync()
		}
		if confl == nil {
			// Full assignment? Give lazy theories a final say.
			if s.pendingDecisions() == 0 && s.theory != nil {
				if lits := s.theory.Check(); lits != nil {
					s.Stats.TheoryConfl++
					confl = &clause{lits: lits}
				}
			}
		}
		if confl != nil {
			conflicts++
			s.Stats.Conflicts++
			// Theory conflicts may involve only literals from earlier
			// levels; back off to the highest level present so analyze's
			// invariant (≥1 literal at the current level) holds.
			maxL := 0
			for _, l := range confl.lits {
				if int(s.level[l.Var()]) > maxL {
					maxL = int(s.level[l.Var()])
				}
			}
			if maxL == 0 || s.decisionLevel() == 0 {
				return Unsat, true
			}
			s.cancelUntil(maxL)
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt)
			s.varInc *= 1.0 / 0.95
			s.claInc *= 1.0 / 0.999
			s.learntsCnt--
			if s.learntsCnt <= 0 {
				s.learntsAdjust *= 1.5
				s.learntsCnt = s.learntsAdjust
				s.maxLearnts *= 1.1
			}
			if s.stop.Load() || s.confBudget > 0 && s.Stats.Conflicts >= s.confBudget {
				return Unknown, true
			}
			if conflicts&255 == 0 && s.overBudget() {
				return Unknown, true
			}
			continue
		}
		if conflicts >= maxConflicts {
			s.cancelUntil(0)
			return Unknown, false // restart
		}
		if float64(len(s.learnts))-float64(len(s.trail)) >= s.maxLearnts {
			s.reduceDB()
		}
		// Assert pending assumptions as the first decisions (MiniSAT style):
		// one per level, re-asserted after every restart or backjump above
		// them. An already-satisfied assumption opens a dummy level so
		// decision levels stay aligned with assumption indices; a falsified
		// one means the formula is unsatisfiable under the assumptions, not
		// necessarily in itself.
		next := LitUndef
		for next == LitUndef && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				s.assumpFail = true
				return Unsat, true
			default:
				next = p
			}
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				return Sat, true
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// pendingDecisions returns the number of unassigned variables.
func (s *Solver) pendingDecisions() int { return len(s.assigns) - len(s.trail) }

func (s *Solver) overBudget() bool {
	if s.stop.Load() {
		return true
	}
	if s.confBudget > 0 && s.Stats.Conflicts >= s.confBudget {
		return true
	}
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// Relax backtracks to decision level 0, discarding the current model (if
// any) but keeping learned clauses, variable activities, and saved phases.
// It makes an instance that has already been solved accept further
// AddClause/NewVar calls and another Solve — the incremental-solving mode
// used by the session checker, which audits a growing formula repeatedly.
// Clause addition is monotone, so a solver that has answered Unsat stays
// permanently unsatisfiable; everything learned before a Sat answer
// remains valid for later rounds.
func (s *Solver) Relax() { s.cancelUntil(0) }

// Solve runs the solver to completion (or budget exhaustion). After Solve
// returns, the instance serves model queries (Value/ValueLit); to add
// further clauses and re-solve, call Relax first (see Relax for the
// incremental contract).
func (s *Solver) Solve() Result {
	if !s.ok {
		return Unsat
	}
	if confl := s.propagate(); confl != nil {
		s.ok = false
		return Unsat
	}
	if confl := s.theorySync(); confl != nil {
		// Theory conflict at level 0.
		s.ok = false
		return Unsat
	}
	s.maxLearnts = float64(len(s.clauses)) * 0.3
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	s.learntsAdjust = 100
	s.learntsCnt = 100
	for restarts := int64(1); ; restarts++ {
		res, done := s.search(luby(restarts) * 100)
		if done {
			if res == Unsat && !s.assumpFail {
				// Only an assumption-free refutation condemns the formula
				// itself; Unsat under assumptions leaves it solvable.
				s.ok = false
			}
			return res
		}
		if s.overBudget() {
			return Unknown
		}
		s.Stats.Restarts++
	}
}

// SolveAssuming solves the formula under the given assumption literals,
// asserted as the solver's first decisions. An Unsat answer means only
// that the formula has no model extending the assumptions (check Okay to
// tell the two apart): the instance stays usable — Relax and re-solve
// with different (or no) assumptions. Learned clauses derived under
// assumptions are consequences of the formula alone (assumptions enter
// conflict analysis as decisions, never as resolution steps), so they
// remain sound for later rounds. Sat and Unknown behave exactly as Solve.
func (s *Solver) SolveAssuming(assumps ...Lit) Result {
	s.assumptions = append(s.assumptions[:0], assumps...)
	res := s.Solve()
	s.assumptions = s.assumptions[:0]
	s.assumpFail = false
	return res
}

// Okay reports whether the formula itself is still possibly satisfiable.
// It turns false permanently once an assumption-free refutation is found
// (clause addition is monotone), and is the way to distinguish a real
// Unsat from an assumptions-only Unsat after SolveAssuming.
func (s *Solver) Okay() bool { return s.ok }
