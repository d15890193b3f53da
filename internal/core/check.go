package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"viper/internal/acyclic"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/sat"
)

// Outcome is a checking verdict.
type Outcome uint8

const (
	// Accept: the history satisfies the checked level (a compatible
	// acyclic graph exists; Theorem 5).
	Accept Outcome = iota
	// Reject: no compatible acyclic graph exists.
	Reject
	// Timeout: the time budget expired before a verdict.
	Timeout
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return "timeout"
	}
}

// PhaseTimings decomposes checking time like Figure 10 of the paper.
// (Parsing is measured by the caller that loads the history.)
type PhaseTimings struct {
	Construct time.Duration // building the BC-polygraph (wall clock)
	// ConstructCPU is the construction work summed across workers: equal
	// to Construct when Options.Parallelism resolves to one worker, and up
	// to ConstructWorkers× larger when the construction pool overlaps work
	// (ConstructCPU / Construct is the effective construction speedup).
	ConstructCPU time.Duration
	// Resolve is sound constraint resolution (resolve.go): closure build
	// plus the constraint fixpoint, in the pre-solve pass and, after a
	// refutation, in the evidence pass. Zero when resolution was disabled
	// or declined to run.
	Resolve time.Duration
	// TSOrder is the timestamp fast path (tsorder.go): deriving the
	// timestamp-implied order and classifying every constraint against
	// it. Zero when the path was disabled or the timestamps unusable.
	TSOrder time.Duration
	Encode  time.Duration // emitting SMT clauses (summed over solver passes)
	Solve   time.Duration // SAT+theory solving (summed over solver passes)
}

// Report is the result of a check.
type Report struct {
	Outcome Outcome
	Level   Level

	// Graph statistics. Constraints counts the constraints materialised
	// in the checked polygraph (the window stage's, window.go), before
	// pruning: every constraint of the full polygraph on a check with a
	// timestamp stage or with pruning off (radius 0), and otherwise the
	// writer pairs within the last pass's radius — 0 on a reject by a
	// cycle of known edges, which it finds before building any. A warm
	// session audit checks the session: KnownEdges counts its known list
	// before this audit's forcing, and Constraints every constraint the
	// session holds, before known-edge elision.
	Nodes       int
	KnownEdges  int
	Constraints int

	// ConstructWorkers is the resolved worker count for polygraph
	// construction (see Options.Parallelism); the construction pool starts
	// at most one goroutine per key it builds.
	ConstructWorkers int

	// ResolvedConstraints counts constraints the sound pre-solve resolution
	// pass discharged without the solver (one side dead against the known
	// graph's transitive closure, or one side already implied by it);
	// ForcedEdges counts the known edges that forcing appended. Both count
	// this check's or audit's pre-solve pass only, never the evidence pass
	// a refutation runs. Zero when Options.DisableResolve is set or the
	// pass declined to run. A warm session audit resolves all the
	// session's constraints afresh: ResolvedConstraints counts those it
	// discharged, and ForcedEdges the edges it forced (earlier audits'
	// forced edges are among its known edges).
	ResolvedConstraints int
	ForcedEdges         int

	// TSDecided/TSResidual count the constraints the timestamp fast path
	// (tsorder.go) classified: decided constraints were settled by the
	// strict drift relation before any encoding, residual ones went to
	// resolution and the solver. Both count this check or audit alone, so
	// their sum never exceeds Constraints. Both zero when
	// Options.DisableTSFastPath is set, the timestamps were unusable, or
	// no constraint reached the stage.
	// TSUnusable, when non-empty, explains why the history's timestamps
	// could not drive the fast path (absent/zero or inverted stamps).
	TSDecided  int
	TSResidual int
	TSUnusable string

	// Solver-pass statistics. The passes of a check share one solver, so
	// EdgeVars (every solver variable) and Solver count all of them, and
	// on a warm session audit every audit's, like the solver they
	// describe; PrunedConstraints, HeuristicEdges and FinalK describe the
	// last pass.
	PrunedConstraints int // constraints resolved by heuristic pruning
	HeuristicEdges    int
	EdgeVars          int
	Retries           int // failed passes (timestamp pass, k doublings), a window pass whose witness failed replay among them
	FinalK            int // 0 means no heuristic was in force

	Phases PhaseTimings
	Solver sat.Stats

	// Reorders/ReorderedNodes count the Pearce–Kelly order repairs the
	// acyclicity theory performed and the nodes they moved (cumulative
	// across audits on a warm incremental session, like Solver).
	Reorders       int64
	ReorderedNodes int64

	// KnownCycle, when non-nil, is a cycle of must-hold edges — known edges
	// and edges resolution forced — as diagnostic evidence of a rejection.
	// It comes from the known graph's topological sort or the pre-solve
	// resolution pass (a rejection that needs no solving), or, when the
	// solver refuted the polygraph, from the evidence pass that follows
	// (solveRun.evidence). A refutation that pass cannot explain names none.
	KnownCycle []KnownEdge

	// Anomaly, when non-empty, names a polynomially-detected anomaly that
	// rejected the history before any graph analysis (currently G1b
	// intermediate reads — see findG1b), in human-readable form.
	Anomaly string

	// WitnessPositions, on Accept, assigns each node a position in a valid
	// total order of begins/commits (the ŝ of Theorem 4): a schedule
	// witnessing SI. Indexed by node id; auxiliary nodes included.
	WitnessPositions []int32

	// WitnessVerified is set when Options.SelfCheck successfully replayed
	// the witness schedule; SelfCheckErr records a replay failure (which
	// would indicate a checker bug).
	WitnessVerified bool
	SelfCheckErr    error

	// Memory gauges. ClosureBytes is the row storage of the largest
	// closure pre-solve resolution built, on one-shot checks and warm
	// audits alike (zero when resolution did not run or declined; the
	// evidence pass after a refutation is not counted). The rest are
	// session gauges, stamped by Incremental at the end of every audit
	// (zero on reports that never passed through a session). With
	// ClosureBytes they are what checkpointing bounds: LiveTxns and
	// HistoryBytes cover the live window, and
	// Checkpoints/FencedTxns/CertBytes/TxnIDBase describe the checkpoint
	// certificate carried in place of the compacted prefix.
	LiveTxns     int
	HistoryBytes int64
	ClosureBytes int64
	Checkpoints  int
	FencedTxns   int
	CertBytes    int64
	TxnIDBase    int64
}

// Snapshot renders the report's counters as a final ("done") progress
// snapshot. Audit/Txns/ElapsedNS/HeapInUse are the caller's to stamp.
func (rep *Report) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Phase:               "done",
		Nodes:               rep.Nodes,
		KnownEdges:          rep.KnownEdges,
		Constraints:         rep.Constraints,
		PrunedConstraints:   rep.PrunedConstraints,
		ResolvedConstraints: rep.ResolvedConstraints,
		ForcedEdges:         rep.ForcedEdges,
		TSDecided:           rep.TSDecided,
		TSResidual:          rep.TSResidual,
		EdgeVars:            rep.EdgeVars,
		Conflicts:           rep.Solver.Conflicts,
		Decisions:           rep.Solver.Decisions,
		Propagations:        rep.Solver.Propagations,
		Learnts:             int64(rep.Solver.Learnts),
		Restarts:            rep.Solver.Restarts,
		TheoryConfl:         rep.Solver.TheoryConfl,
		Reorders:            rep.Reorders,
		ReorderedNodes:      rep.ReorderedNodes,
		HistoryBytes:        rep.HistoryBytes,
		ClosureBytes:        rep.ClosureBytes,
		Checkpoints:         rep.Checkpoints,
		CertBytes:           rep.CertBytes,
	}
}

// selfCheck replays the witness if requested.
func (rep *Report) selfCheck(pg *Polygraph, opts Options) {
	if !opts.SelfCheck || rep.Outcome != Accept || rep.WitnessPositions == nil {
		return
	}
	defer opts.Tracer.Start("selfcheck").End()
	if err := VerifyWitness(pg.H, rep.WitnessPositions, pg.Level); err != nil {
		rep.SelfCheckErr = err
		return
	}
	rep.WitnessVerified = true
}

// CheckHistory builds the BC-polygraph of a validated history and checks
// it, populating construction timing (the CheckSI procedure of Figure 4).
// It panics when transactions were appended since the history's last
// successful Validate.
func CheckHistory(h *history.History, opts Options) *Report {
	return CheckHistoryContext(context.Background(), h, opts)
}

// CheckHistoryContext is CheckHistory under a cancellation context: ctx's
// deadline bounds checking exactly like Options.Timeout (whichever
// expires first wins), and canceling ctx interrupts a running solve. A
// check stopped by ctx reports Outcome Timeout.
func CheckHistoryContext(ctx context.Context, h *history.History, opts Options) *Report {
	if opts.Level.Polynomial() {
		return checkPolynomial(h, opts)
	}
	// One-shot checking is a single-audit incremental session: the first
	// audit is cold, so the verdict, report, and witness are those of a
	// Checker's first audit, the window stage's (window.go), whose window
	// is the full polygraph when a timestamp stage will run.
	return sessionOver(h, opts).AuditContext(ctx)
}

// solveDeadline merges the Options.Timeout budget with ctx's deadline:
// the earlier of the two, or zero when neither applies.
func solveDeadline(ctx context.Context, opts Options) time.Time {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return deadline
}

// watchCancel interrupts s the moment ctx is canceled, turning a context
// cancellation into the solver's cooperative stop. The returned release
// function retires the watcher; callers pair it with exactly one solve.
// A context that can never be canceled installs nothing.
func watchCancel(ctx context.Context, s *sat.Solver) (release func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.Interrupt()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// CheckPolygraph decides whether the polygraph is acyclic (Definition 3) —
// equivalently whether the history meets the level (Theorem 5) — using
// MonoSAT-style solving with heuristic pruning and retry (§3.5).
func CheckPolygraph(pg *Polygraph, opts Options) *Report {
	return CheckPolygraphContext(context.Background(), pg, opts)
}

// CheckPolygraphContext is CheckPolygraph under a cancellation context
// (see CheckHistoryContext for the contract).
func CheckPolygraphContext(ctx context.Context, pg *Polygraph, opts Options) *Report {
	rep := checkPolygraph(ctx, pg, opts, solveDeadline(ctx, opts))
	rep.selfCheck(pg, opts)
	return rep
}

// checkPolygraph is CheckPolygraphContext without the witness self-check,
// under a deadline the caller resolved (solveDeadline).
func checkPolygraph(ctx context.Context, pg *Polygraph, opts Options, deadline time.Time) *Report {
	// Topologically sort the known graph. A cycle here is a rejection with
	// direct evidence; otherwise the order seeds heuristic pruning.
	r := newSolveRun(pg, opts, deadline)
	order, ok := r.schedule()
	if !ok {
		return r.rep
	}
	r.check(ctx, order)
	return r.rep
}

// newSolveRun readies a check of pg: its report and its known graph's
// adjacency.
func newSolveRun(pg *Polygraph, opts Options, deadline time.Time) *solveRun {
	out := edgeLists(int(pg.NumNodes), pg.Known, false)
	rep := &Report{
		Level:       pg.Level,
		Nodes:       int(pg.NumNodes),
		KnownEdges:  len(pg.Known),
		Constraints: len(pg.Cons),
	}
	return &solveRun{pg: pg, opts: opts, rep: rep, out: out, deadline: deadline, checkStart: time.Now()}
}

// schedule sorts the known graph topologically under less, giving ŝ. A
// cycle rejects: ok is false and the report carries the cycle.
func (r *solveRun) schedule() (order []int32, ok bool) {
	order, ok = acyclic.TopoPriority(int(r.pg.NumNodes), r.out, r.less)
	if !ok {
		r.rep.Outcome = Reject
		r.rep.KnownCycle = knownCycle(r.out, r.pg.Known)
	}
	return order, ok
}

// check decides pg from order, ŝ over its known graph (schedule): a
// constraint-free polygraph accepts on ŝ itself, anything else goes
// through solve.
func (r *solveRun) check(ctx context.Context, order []int32) {
	pg, rep := r.pg, r.rep
	rep.Constraints = len(pg.Cons)

	// Constraint-free fast path (write order fully known — e.g. the
	// list-append workload, §7.1): the BC-polygraph is a BC-graph and the
	// successful topological sort already proves acyclicity.
	if len(pg.Cons) == 0 && r.accept(positionsOf(order)) {
		return
	}

	r.solve(ctx, r.everything(order))
}

// everything is every constraint of pg, undecided, over pg's known graph
// and ŝ (order).
func (r *solveRun) everything(order []int32) consSet {
	pg := r.pg
	all := consSet{cons: pg.Cons, at: make([]int32, len(pg.Cons)), known: pg.Known, pos: positionsOf(order)}
	for i := range all.at {
		all.at[i] = int32(i)
	}
	return all
}

// solve runs a check's stages over all, every constraint still undecided:
// the timestamp stage, pre-solve resolution, and the solver passes (run),
// after whose refutation the evidence pass names the cycle. The one-shot
// check and a warm session audit both come through here; they differ only
// in where the solver comes from, and in that a warm audit has run its
// pre-solve resolution already (presolved).
func (r *solveRun) solve(ctx context.Context, all consSet) {
	rep, pg := r.rep, r.pg
	if r.stopped(ctx) {
		return
	}

	// Timestamp fast path (tsorder.go): when the history carries usable
	// timestamps, classify every constraint against the strict drift
	// relation in one near-linear pass. With everything decided and the
	// chosen sides following ŝ (which already embeds every constant), ŝ
	// itself witnesses a compatible graph — accept without resolution,
	// encoding, or solving. When timestamps decide at least 90%, only the
	// residue goes through resolution, and the first solver pass asserts
	// the chosen sides for itself alone (see tsorder.go for the soundness
	// argument).
	if !r.opts.DisableTSFastPath {
		if usable, reason := tsUsable(pg.H); !usable {
			rep.TSUnusable = reason
		} else {
			tsReg := r.opts.Tracer.Start("tsorder")
			tsStart := time.Now()
			tc := pg.tsClassify(all, r.opts.ClockDrift.Nanoseconds())
			rep.TSDecided, rep.TSResidual = tc.decided, len(tc.residual.cons)
			rep.Phases.TSOrder = time.Since(tsStart)
			tsReg.End()
			if len(tc.residual.cons) == 0 && chosenForward(all.cons, tc.chosen, all.pos) && r.accept(all.pos) {
				return
			}
			if tc.decided*10 >= len(all.cons)*9 {
				residue := tc.residual
				residue.known, residue.pos = all.known, all.pos
				if len(residue.cons) > resolveCheapBatch {
					var ok bool
					if residue, ok = r.resolve(ctx, residue); !ok {
						return
					}
				}
				if len(residue.cons) == 0 && chosenForward(all.cons, tc.chosen, residue.pos) && r.accept(residue.pos) {
					// The residue resolved away and the chosen sides still
					// follow the (possibly re-sorted) topological order:
					// witness in hand.
					return
				}
				r.ts, r.all, r.chosen = true, all, tc.chosen
				r.run(ctx, residue, r.opts.firstK())
				return
			}
			// Timestamps decide too little to carry a pass — run the
			// standard pipeline; the counters still report what they knew.
		}
	}

	// Sound pre-solve resolution (resolve.go): discharge the constraints
	// the known graph's transitive closure already decides, before any
	// solver exists, with cheap folds only. Unlike the heuristic pruning
	// below, everything this pass forces is exact, so a cycle among forced
	// edges is an immediate rejection with known-edge evidence, and a
	// fully-resolved constraint set accepts without ever encoding a clause.
	set, ok := r.resolve(ctx, all)
	if !ok {
		return
	}
	k := r.opts.firstK()
	if len(set.cons) == 0 {
		if r.accept(set.pos) {
			// Every constraint resolved: the extended known graph is the
			// whole polygraph and its topological order is the witness.
			return
		}
		// A window's order failed replay with nothing left to encode: the
		// first pass would solve nothing and fail the same way, so this is
		// its failure, and the first solver pass runs at the next radius.
		rep.Retries++
		k = r.nextK(k)
		set = r.widen(set, k)
	}
	r.run(ctx, set, k)
}

// consSet is what a run of solver passes works on: the constraints still
// undecided, each with its index in Polygraph.Cons; the known graph
// extended by every edge resolution forced (all exact, so all constants);
// and the heuristic order ŝ, a topological order of that graph.
type consSet struct {
	cons  []Constraint
	at    []int32
	known []KnownEdge
	pos   []int32
}

// solveRun is one check's solver passes: a single sat.Solver and
// acyclic.EdgeTheory that every pass extends. Known and resolve-forced
// edges are theory constants, inserted once. A constraint gets its clauses
// the first pass that cannot force it, and keeps them. Everything a pass
// asserts for itself alone — the timestamp-chosen sides, the sides §3.5
// pruning forces, the stride edges — is one guarded batch that the pass's
// SolveAssuming call assumes and that is retired when the pass fails.
// Conflicts through batch edges carry ¬guard, so an Unsat with Okay()
// still true failed only the pass, while one with Okay() false refuted the
// polygraph outright.
//
// A one-shot check starts its solver, theory and encodings at its first
// pass. A warm session audit hands in the ones it carries across audits,
// with nconst, the prefix of its known list the theory already holds. It
// runs the same schedule and pre-solve resolution (resolve) itself, ahead
// of solve, whose own resolution then does nothing (presolved). Both paths
// pay for large folds only after a refutation, in the one evidence pass
// (evidence) over pg: a warm audit's pg lists the session's known list as
// its known graph.
type solveRun struct {
	pg         *Polygraph
	opts       Options
	rep        *Report
	out        [][]int32 // known graph adjacency; pre-solve resolution's forced edges extend it
	deadline   time.Time
	checkStart time.Time

	ts     bool    // the first pass asserts the timestamp-chosen sides
	all    consSet // every constraint, before any resolution (timestamp pass only)
	chosen []int32 // the timestamp-chosen sides, as tsClassify lists them
	// committed lists the committed transactions, the endpoints of stride
	// edges, collected once for every pass.
	committed []history.TxnID

	// radius is the §3.5 radius pg was built to: 0 when it holds every
	// constraint (the full polygraph, or a window widened to the exact
	// pass), so that any model is exact; k > 0 for the window stage's
	// polygraph (window.go), whose accepts stand only on a replayed
	// witness (accept). grow, set with it, widens the polygraph to the
	// radius k of the pass about to run by appending constraints to
	// pg.Cons; run adds them to the pass's set.
	radius int
	grow   func(k int)

	presolved bool // pre-solve resolution already ran (a warm audit's)
	s         *sat.Solver
	th        *acyclic.EdgeTheory
	release   func()
	nconst    int // constants inserted: a prefix of the current consSet.known
	// sel holds, by Polygraph.Cons index, the selector literal of each
	// constraint that has its clauses (sat.LitUndef before): the selector
	// variable of a coalesced constraint, or the first edge's literal of
	// an XOR. A side that grows later needs only one more implication on
	// it (see incremental.go).
	sel []sat.Lit
}

// less orders nodes by timestamp, then id: the priority that turns the
// known graph's topological sort into the heuristic schedule ŝ.
func (r *solveRun) less(a, b int32) bool {
	ts := r.pg.nodeTS
	if ts[a] != ts[b] {
		return ts[a] < ts[b]
	}
	return a < b
}

// resolve runs the pre-solve resolution pass over set (unless disabled)
// and returns the constraints it leaves, with its forced edges appended to
// the known graph and ŝ re-sorted over the result. ok is false when it
// rejected; the report then carries the cycle. The pass takes no large
// folds: an accept never needs them, and a refutation pays for them in
// the evidence pass instead.
func (r *solveRun) resolve(ctx context.Context, set consSet) (_ consSet, ok bool) {
	if r.opts.DisableResolve || r.presolved {
		return set, true
	}
	rep, pg := r.rep, r.pg
	defer r.opts.Tracer.Start("resolve").End()
	resolveStart := time.Now()
	defer func() { rep.Phases.Resolve += time.Since(resolveStart) }()
	order := make([]int32, len(set.pos))
	for n, p := range set.pos {
		order[p] = int32(n)
	}
	rr := resolvePolygraph(ctx, int(pg.NumNodes), set.known, set.cons, order, 0, r.opts.workers())
	if rr == nil {
		return set, true
	}
	rep.ResolvedConstraints = rr.resolved
	rep.ClosureBytes = max(rep.ClosureBytes, rr.bytes)
	rep.ForcedEdges = len(set.known) - len(pg.Known) + len(rr.forced)
	if rr.cycle != nil {
		rep.Outcome = Reject
		rep.KnownCycle = rr.cycle
		return set, false
	}
	at := make([]int32, len(rr.keptAt))
	for i, j := range rr.keptAt {
		at[i] = set.at[j]
	}
	next := consSet{cons: rr.kept, at: at, known: set.known, pos: set.pos}
	if len(rr.forced) > 0 {
		// Forced edges joined the known graph (rr.out): recompute the
		// heuristic order over the extended graph. The resolver checked
		// every forced edge against its closure, but a large batch the
		// fixpoint stopped on was never folded, so its edges may close a
		// cycle the closure never saw: a rejection whose cycle runs through
		// forced edges, each named with its provenance.
		next.known = append(append(make([]KnownEdge, 0, len(set.known)+len(rr.forced)), set.known...), rr.forced...)
		r.out = rr.out
		order, ok := acyclic.TopoPriority(int(pg.NumNodes), r.out, r.less)
		if !ok {
			rep.Outcome = Reject
			rep.KnownCycle = knownCycle(r.out, next.known)
			return set, false
		}
		next.pos = positionsOf(order)
	}
	return next, true
}

// run drives the passes over set in order: the timestamp pass (when the
// check has one), then each §3.5 radius k, 2k, … from the given k, and
// finally k = 0 (exact), stopping at the first verdict. A pass that
// refutes the polygraph, the timestamp pass included, rejects through
// verdict, which runs the evidence pass. On a window, a pass whose
// witness fails replay fails like one that is Unsat under its batch: the
// next pass runs at 2k over the window widened to 2k.
func (r *solveRun) run(ctx context.Context, set consSet, k int) {
	defer func() {
		if r.release != nil {
			r.release()
		}
	}()
	rep, pg := r.rep, r.pg
	if h := pg.H; h != nil {
		for _, t := range h.Txns[1:] {
			if t.Committed() {
				r.committed = append(r.committed, t.ID)
			}
		}
	}
	if r.ts {
		if r.stopped(ctx) {
			return
		}
		if res, witness := r.pass(ctx, set, 0, r.chosen); r.verdict(ctx, res, witness) {
			return
		}
		// An Unsat that used the chosen sides only says the timestamps may
		// be wrong about this history: drop them and resolve the full
		// constraint set, against the known graph as the residue's
		// resolution left it.
		rep.Retries++
		r.th.Retire(r.s)
		all := r.all
		all.known, all.pos = set.known, set.pos
		var ok bool
		if set, ok = r.resolve(ctx, all); !ok {
			return
		}
		if len(set.cons) == 0 && r.accept(set.pos) {
			return
		}
	}

	for !r.stopped(ctx) {
		if res, witness := r.pass(ctx, set, k, nil); r.verdict(ctx, res, witness) {
			return
		}
		if k == 0 {
			panic("core: exact pass Unsat under assumptions") // it assumes nothing
		}
		// Unsat under this radius's batch only, or a window's witness that
		// failed replay: widen the radius. Retire backtracks only when a
		// batch is live, and a Sat leaves its model on the trail.
		rep.Retries++
		r.s.Relax()
		r.th.Retire(r.s)
		k = r.nextK(k)
		set = r.widen(set, k)
	}
}

// nextK is the radius of the pass after one at k: 2k, or 0, the final
// exact pass, once 2k reaches the node count.
func (r *solveRun) nextK(k int) int {
	if k *= 2; k >= int(r.pg.NumNodes) {
		return 0
	}
	return k
}

// widen grows a window's polygraph to radius k (grow) and adds the
// constraints it appended to set, undecided and without clauses. A
// polygraph that holds every constraint already stays as it is.
func (r *solveRun) widen(set consSet, k int) consSet {
	if r.grow == nil {
		return set
	}
	pg := r.pg
	n := len(pg.Cons)
	r.grow(k)
	r.radius = k
	set.cons = append(slices.Clip(set.cons), pg.Cons[n:]...)
	for i := n; i < len(pg.Cons); i++ {
		set.at = append(set.at, int32(i))
		r.sel = append(r.sel, sat.LitUndef)
	}
	r.rep.Constraints = len(pg.Cons)
	return set
}

// stopped reports (and records as a timeout) a context that expired
// before the next pass.
func (r *solveRun) stopped(ctx context.Context) bool {
	if ctx.Err() != nil {
		r.rep.Outcome = Timeout
		return true
	}
	return false
}

// verdict records a pass result that decides the check — Sat accepts on
// the pass's witness, Unknown times out, and Unsat with Okay() false
// rejects, a refutation whose cycle the evidence pass then names — and
// reports whether it did. An Unsat that only refuted the pass's batch
// decides nothing, and neither does a Sat whose accept does not stand.
func (r *solveRun) verdict(ctx context.Context, res sat.Result, witness []int32) bool {
	switch {
	case res == sat.Sat:
		return r.accept(witness)
	case res == sat.Unknown:
		r.rep.Outcome = Timeout
	case !r.s.Okay():
		r.rep.Outcome = Reject
		r.evidence(ctx)
	default:
		return false
	}
	return true
}

// accept records an Accept on witness pos and reports whether it stands:
// always on a polygraph holding every constraint (radius 0), and on a
// window only once VerifyWitness has replayed pos — Theorem 4's schedule
// check, NoConflict included, which holds whatever the pairs the window
// left out said, and which is the accept's self-check.
func (r *solveRun) accept(pos []int32) bool {
	if r.radius > 0 {
		if VerifyWitness(r.pg.H, pos, r.pg.Level) != nil {
			return false
		}
		r.rep.WitnessVerified = r.opts.SelfCheck
	}
	r.rep.Outcome, r.rep.WitnessPositions = Accept, pos
	return true
}

// evidence names the cycle behind a refutation, when resolution can: the
// fixpoint with its budget of large folds (resolveLargeFolds) over every
// constraint of pg, from pg's own known graph, not r.out, which the
// pre-solve pass's forced edges extend. A warm audit's pg lists the
// session's known list as it stood before this audit's forcing. A cycle
// the fixpoint closes, in its closure or through a forced batch it
// stopped on unfolded, becomes the report's KnownCycle. The pass never
// changes the verdict: finding no cycle, or ctx expiring, leaves the
// reject without one. It declines before building anything when
// resolution is disabled, ctx has expired or the closure is over budget.
// Its time is resolution time; its counts are not reported.
func (r *solveRun) evidence(ctx context.Context) {
	pg := r.pg
	n := int(pg.NumNodes)
	if r.opts.DisableResolve || ctx.Err() != nil || !closureFeasible(n) {
		return
	}
	defer r.opts.Tracer.Start("evidence").End()
	start := time.Now()
	defer func() { r.rep.Phases.Resolve += time.Since(start) }()
	rr := resolvePolygraph(ctx, n, pg.Known, pg.Cons, nil, resolveLargeFolds, r.opts.workers())
	switch {
	case rr == nil:
	case rr.cycle != nil:
		r.rep.KnownCycle = rr.cycle
	case len(rr.forced) > 0:
		known := append(append(make([]KnownEdge, 0, len(pg.Known)+len(rr.forced)), pg.Known...), rr.forced...)
		r.rep.KnownCycle = knownCycle(rr.out, known)
	}
}

// pass runs one encode+solve round over set and returns its result, with
// the theory's order as the witness on Sat. k > 0 applies heuristic
// pruning at stride k: a not-yet-encoded constraint with one side running
// k or more positions backward in ŝ is forced to its other side, and the
// stride edges are asserted. k == 0 encodes every remaining constraint.
// chosen lists further sides asserted for this pass (the timestamp-chosen
// sides, as tsClassify lists them), expanded into the batch only here.
// A pass that prunes both sides of some constraint cannot succeed;
// it returns Unsat without solving. Canceling ctx interrupts the solver;
// the pass then reports Unknown.
func (r *solveRun) pass(ctx context.Context, set consSet, k int, chosen []int32) (sat.Result, []int32) {
	attReg := r.opts.Tracer.Start("attempt")
	attReg.SetAttr("k", int64(k))
	defer attReg.End()
	rep, pg := r.rep, r.pg
	encodeStart := time.Now()
	rep.FinalK = k

	if r.s == nil {
		r.start(set.pos)
	}
	if r.release == nil {
		r.arm(ctx)
	}
	// Constants: the known graph plus every resolve-forced edge, each
	// inserted once. They are exact, so a cycle among them refutes the
	// polygraph (the empty clause).
	add := set.known[r.nconst:]
	r.th.ReserveConstants(len(add), func(i int) acyclic.Edge { return acyclic.Edge(add[i].Edge) })
	for _, ke := range add {
		if !r.th.InsertConstant(ke.From, ke.To) {
			r.s.AddClause()
		}
	}
	r.nconst = len(set.known)

	// Decide every constraint the solver does not own yet before asserting
	// anything, counting the batch's edges — the chosen sides, the sides
	// pruning forces and the stride edges — so that the batch is allocated
	// once. act[i] is what the pass does with set.cons[i]: encode it, force
	// one of its sides, or nothing (0) when the solver owns it already.
	const (
		encodeIt = 1 + iota
		forceFirst
		forceSecond
	)
	act := make([]uint8, len(set.cons))
	size := 0
	for _, ch := range chosen {
		size += len(chosenSide(r.all.cons, ch))
	}
	violates := func(edges []Edge) bool {
		for _, e := range edges {
			if int(set.pos[e.From])-int(set.pos[e.To]) >= k {
				return true
			}
		}
		return false
	}
	pruned := 0
	for i, c := range set.cons {
		if r.sel[set.at[i]] != sat.LitUndef {
			continue // its clauses are in the solver already
		}
		fBad, sBad := k > 0 && violates(c.First), k > 0 && violates(c.Second)
		switch {
		case fBad && sBad:
			// Both sides contradict the heuristic order: this pass
			// cannot succeed; skip the solver and retry with larger k.
			rep.PrunedConstraints, rep.HeuristicEdges = pruned+1, 0
			rep.Phases.Encode += time.Since(encodeStart)
			return sat.Unsat, nil
		case fBad:
			act[i] = forceSecond
			size += len(c.Second)
			pruned++
		case sBad:
			act[i] = forceFirst
			size += len(c.First)
			pruned++
		default:
			act[i] = encodeIt
		}
	}
	rep.PrunedConstraints = pruned
	var stride []Edge
	if k > 0 {
		stride = pg.heuristicEdges(set.pos, k, r.committed)
	}
	rep.HeuristicEdges = len(stride)
	batch := make([]acyclic.Edge, 0, size+len(stride))
	assert := func(edges []Edge) {
		for _, e := range edges {
			batch = append(batch, acyclic.Edge(e))
		}
	}
	for _, ch := range chosen {
		assert(chosenSide(r.all.cons, ch))
	}
	for i, a := range act {
		switch a {
		case forceFirst:
			assert(set.cons[i].First)
		case forceSecond:
			assert(set.cons[i].Second)
		}
	}
	assert(stride)

	// Edge variables start biased toward their schedule-consistent
	// polarity: an edge running forward in ŝ is probably present, a
	// backward one probably absent. Decisions then reproduce ŝ unless
	// conflicts force otherwise, keeping the search near-linear on healthy
	// histories and localized on violations.
	s := r.s
	edgeLit := func(e Edge) sat.Lit {
		v := r.th.EdgeVar(s, e.From, e.To)
		s.SetPhase(v, set.pos[e.From] < set.pos[e.To])
		return sat.PosLit(v)
	}
	for i, a := range act {
		if a != encodeIt {
			continue
		}
		c := set.cons[i]
		if len(c.First) == 1 && len(c.Second) == 1 {
			// The paper's XOR encoding (Figure 4 line 22).
			first := edgeLit(c.First[0])
			s.AddXOR(first, edgeLit(c.Second[0]))
			r.sel[set.at[i]] = first
			continue
		}
		// Coalesced: one selector implying each side; the selector is
		// biased toward the side whose edges follow ŝ.
		sel := s.NewVar()
		s.SetPhase(sel, sideForward(c.First, set.pos))
		for _, e := range c.First {
			s.AddClause(sat.NegLit(sel), edgeLit(e))
		}
		for _, e := range c.Second {
			s.AddClause(sat.PosLit(sel), edgeLit(e))
		}
		r.sel[set.at[i]] = sat.PosLit(sel)
	}
	var assume []sat.Lit
	if len(batch) > 0 {
		assume = append(assume, sat.PosLit(r.th.AddBatch(s, batch)))
	}

	encoded := time.Since(encodeStart)
	solveStart := time.Now()
	res := s.SolveAssuming(assume...)
	var witness []int32
	if res == sat.Sat {
		witness = make([]int32, pg.NumNodes)
		for n := int32(0); n < pg.NumNodes; n++ {
			witness[n] = r.th.Order(n)
		}
	}
	// Everything after encoding — solving plus witness extraction — is
	// this pass's solve time.
	solved := time.Since(solveStart)
	rep.Phases.Encode += encoded
	rep.Phases.Solve += solved
	attReg.Child("encode", encoded)
	attReg.Child("solve", solved)
	rep.Solver = s.Stats
	rep.EdgeVars = s.NumVars()
	rep.Reorders, rep.ReorderedNodes = r.th.Reorders()
	return res, witness
}

// start builds a one-shot check's solver, theory and encodings. The
// theory's topological order is warm-started with ŝ: the known graph's
// edges (the bulk of all insertions) then land in already-consistent
// positions.
func (r *solveRun) start(pos []int32) {
	r.s = sat.New()
	r.th = acyclic.NewEdgeTheory(int(r.pg.NumNodes))
	r.th.SeedOrder(pos)
	r.s.SetTheory(r.th)
	r.sel = make([]sat.Lit, len(r.pg.Cons))
	for i := range r.sel {
		r.sel[i] = sat.LitUndef
	}
}

// arm readies the solver for this run's passes: this run's deadline, an
// interrupt when ctx is canceled (clearing one a carried solver kept from
// a canceled audit), and solve-time progress sampling.
func (r *solveRun) arm(ctx context.Context) {
	r.s.ClearInterrupt()
	r.s.SetDeadline(r.deadline)
	r.release = watchCancel(ctx, r.s)

	// The hook runs synchronously on the solving goroutine, so reading the
	// solver, theory and report is race-free.
	if r.opts.Progress == nil {
		return
	}
	s, th, rep := r.s, r.th, r.rep
	s.SetProgress(r.opts.progressInterval(), func() {
		snap := obs.Snapshot{
			Phase:               "solve",
			ElapsedNS:           int64(time.Since(r.checkStart)),
			Nodes:               int(r.pg.NumNodes),
			KnownEdges:          r.nconst,
			Constraints:         len(r.pg.Cons),
			PrunedConstraints:   rep.PrunedConstraints,
			ResolvedConstraints: rep.ResolvedConstraints,
			ForcedEdges:         rep.ForcedEdges,
			EdgeVars:            s.NumVars(),
			Conflicts:           s.Stats.Conflicts,
			Decisions:           s.Stats.Decisions,
			Propagations:        s.Stats.Propagations,
			Learnts:             int64(s.Stats.Learnts),
			Restarts:            s.Stats.Restarts,
			TheoryConfl:         s.Stats.TheoryConfl,
			HeapInUse:           obs.HeapInUse(),
		}
		snap.Reorders, snap.ReorderedNodes = th.Reorders()
		r.opts.Progress(snap)
	})
}

// sideForward reports whether every edge of a constraint side runs
// forward in the heuristic order.
func sideForward(side []Edge, pos []int32) bool {
	for _, e := range side {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// heuristicEdges returns the §3.5 stride edges over the committed
// transactions: each commit node is assumed to precede the first begin
// node at least k positions later in the heuristic order ŝ.
func (pg *Polygraph) heuristicEdges(pos []int32, k int, committed []history.TxnID) []Edge {
	type pb struct {
		pos  int32
		node int32
	}
	begins := make([]pb, 0, len(committed))
	for _, t := range committed {
		b := pg.Begin(t)
		begins = append(begins, pb{pos[b], b})
	}
	sort.Slice(begins, func(i, j int) bool { return begins[i].pos < begins[j].pos })
	var edges []Edge
	for _, t := range committed {
		c := pg.Commit(t)
		target := pos[c] + int32(k)
		i := sort.Search(len(begins), func(i int) bool { return begins[i].pos >= target })
		if i < len(begins) {
			edges = append(edges, Edge{c, begins[i].node})
		}
	}
	return edges
}

// knownCycle extracts a cycle of the graph with adjacency out, naming
// each edge with its provenance in known, the graph's edge list.
func knownCycle(out [][]int32, known []KnownEdge) []KnownEdge {
	cyc := acyclic.FindCycle(len(out), out)
	if cyc == nil {
		return nil
	}
	idx := indexKnown(known)
	edges := make([]KnownEdge, 0, len(cyc))
	for i := range cyc {
		edges = append(edges, idx.provenance(Edge{cyc[i], cyc[(i+1)%len(cyc)]}))
	}
	return edges
}

func positionsOf(order []int32) []int32 {
	pos := make([]int32, len(order))
	for i, n := range order {
		pos[n] = int32(i)
	}
	return pos
}
