package oracle

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

// prefixOf returns a fresh validated history holding the first k appended
// transactions of h, or nil if that prefix does not validate (e.g. a read
// observing a write that only arrives later — legal for the full history,
// not for the prefix).
func prefixOf(h *history.History, k int) *history.History {
	p := history.New()
	for _, t := range h.Txns[1 : 1+k] {
		t2 := *t
		p.Append(&t2)
	}
	if err := p.Validate(); err != nil {
		return nil
	}
	return p
}

// checkCycleClosed verifies a rejection's counterexample: the KnownCycle
// edges must chain head-to-tail and close.
func checkCycleClosed(t *testing.T, rep *core.Report, ctx string) {
	t.Helper()
	cyc := rep.KnownCycle
	if len(cyc) == 0 {
		return
	}
	for i := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if cyc[i].To != next.From {
			t.Fatalf("%s: counterexample cycle not closed at edge %d: %+v", ctx, i, cyc)
		}
	}
}

// compareCounters holds the incremental report to batch-report parity
// contract: the first audit is cold and must reproduce every batch counter
// verbatim (it runs the identical pipeline); later audits may legitimately
// differ in solver-side counters (the warm solver is cumulative, pruning
// radii differ) but must still agree on the graph shape and never report a
// negative phase duration. ReadCommitted bypasses the polygraph machinery
// entirely and reports no counters.
func compareCounters(t *testing.T, got, want *core.Report, firstAudit bool, ctx string, at int) {
	t.Helper()
	if got.Nodes != want.Nodes {
		t.Fatalf("%s k=%d: incremental Nodes=%d batch=%d", ctx, at, got.Nodes, want.Nodes)
	}
	if firstAudit {
		type counters struct {
			knownEdges, constraints, edgeVars     int
			pruned, heuristic, retries, finalK    int
			conflicts, decisions, props, restarts int64
			theoryConfl, reorders, moved          int64
			vars, clauses, learnts                int
		}
		snap := func(r *core.Report) counters {
			return counters{
				knownEdges: r.KnownEdges, constraints: r.Constraints, edgeVars: r.EdgeVars,
				pruned: r.PrunedConstraints, heuristic: r.HeuristicEdges,
				retries: r.Retries, finalK: r.FinalK,
				conflicts: r.Solver.Conflicts, decisions: r.Solver.Decisions,
				props: r.Solver.Propagations, restarts: r.Solver.Restarts,
				theoryConfl: r.Solver.TheoryConfl, reorders: r.Reorders, moved: r.ReorderedNodes,
				vars: r.Solver.Vars, clauses: r.Solver.Clauses, learnts: r.Solver.Learnts,
			}
		}
		g, w := snap(got), snap(want)
		if g != w {
			t.Fatalf("%s k=%d: first (cold) audit counters diverge from batch:\n inc:   %+v\n batch: %+v",
				ctx, at, g, w)
		}
	}
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"Construct", got.Phases.Construct},
		{"ConstructCPU", got.Phases.ConstructCPU},
		{"Encode", got.Phases.Encode},
		{"Solve", got.Phases.Solve},
	} {
		if ph.d < 0 {
			t.Fatalf("%s k=%d: negative %s phase %v (attribution drift)", ctx, at, ph.name, ph.d)
		}
	}
}

// auditPrefixes drives one incremental session over h in batches of the
// given size, and at every batch boundary compares the session's Audit
// against a from-scratch CheckHistory on the same validated prefix. It
// returns the session's reports, one per audit.
func auditPrefixes(t *testing.T, h *history.History, opts core.Options, batch int, ctx string) []*core.Report {
	t.Helper()
	inc := core.NewIncremental(opts)
	var reps []*core.Report
	firstAudit := true
	rejected := false
	n := h.Len()
	for at := 0; at < n; {
		hi := at + batch
		if hi > n {
			hi = n
		}
		for _, tx := range h.Txns[1+at : 1+hi] {
			t2 := *tx
			inc.Append(&t2)
		}
		at = hi

		prefix := prefixOf(h, at)
		if prefix == nil {
			continue // prefix does not validate; the session must not audit
		}
		if err := inc.History().Validate(); err != nil {
			t.Fatalf("%s k=%d: session history failed validation: %v", ctx, at, err)
		}
		got := inc.Audit()
		reps = append(reps, got)
		want := core.CheckHistory(prefix, opts)
		if got.Outcome != want.Outcome {
			t.Fatalf("%s k=%d: incremental=%v batch=%v\nhistory: %v",
				ctx, at, got.Outcome, want.Outcome, dump(prefix))
		}
		// Counter parity. Skipped for ReadCommitted (no polygraph, no
		// counters) and audits after a rejection (the session returns the
		// cached rejecting report, whose counters describe the rejecting
		// prefix, not the current one).
		if opts.Level != core.ReadCommitted && !rejected {
			compareCounters(t, got, want, firstAudit, ctx, at)
		}
		firstAudit = false
		if got.Outcome == core.Reject {
			rejected = true
		}
		if got.Outcome == core.Accept && got.SelfCheckErr != nil {
			t.Fatalf("%s k=%d: incremental witness self-check: %v", ctx, at, got.SelfCheckErr)
		}
		checkCycleClosed(t, got, ctx)
	}
	return reps
}

// incrementalCombos is the option matrix for the incremental differential:
// the warm-solver path (AdyaSI / Serializability with default solving),
// its ablation variants, a pruning radius small enough that warm passes
// prune, resolution off so the warm solver alone answers for constraints
// whose sides grow after it encoded them, parallel regeneration, the
// always-cold real-time levels, and the solver-free ReadCommitted path.
func incrementalCombos() []core.Options {
	return []core.Options{
		{Level: core.AdyaSI, SelfCheck: true},
		{Level: core.AdyaSI, SelfCheck: true, InitialK: 4},
		{Level: core.AdyaSI, SelfCheck: true, DisableResolve: true},
		{Level: core.AdyaSI, SelfCheck: true, DisableCombineWrites: true},
		{Level: core.AdyaSI, SelfCheck: true, DisableCoalesce: true},
		{Level: core.AdyaSI, SelfCheck: true, DisablePruning: true},
		{Level: core.AdyaSI, SelfCheck: true, Parallelism: 4},
		{Level: core.Serializability, SelfCheck: true},
		{Level: core.GSI, SelfCheck: true},
		{Level: core.StrongSessionSI, SelfCheck: true},
		{Level: core.StrongSI, SelfCheck: true},
		{Level: core.ReadCommitted},
	}
}

// TestIncrementalMatchesBatchOnNamedHistories replays the canonical named
// histories one transaction at a time through an incremental session, at
// every level, asserting batch equivalence at each boundary.
func TestIncrementalMatchesBatchOnNamedHistories(t *testing.T) {
	mk := func(build func(b *history.Builder)) *history.History {
		b := history.NewBuilder()
		build(b)
		return b.MustHistory()
	}
	named := []struct {
		name string
		h    *history.History
	}{
		{"figure2", mk(func(b *history.Builder) {
			s1, s2, s3 := b.Session(), b.Session(), b.Session()
			t1 := s1.Txn().Write("x").Commit()
			s2.Txn().Write("x").Commit()
			s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Commit()
		})},
		{"write-skew", mk(func(b *history.Builder) {
			s1, s2 := b.Session(), b.Session()
			s1.Txn().ReadGenesis("x").Write("y").Commit()
			s2.Txn().ReadGenesis("y").Write("x").Commit()
		})},
		{"long-fork", mk(func(b *history.Builder) {
			ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session(), b.Session()}
			t1 := ss[0].Txn().Write("x").Write("y").Commit()
			t2 := ss[1].Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
			t3 := ss[2].Txn().ReadObserved("y", t1.WriteIDOf("y")).Write("y").Commit()
			ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("y", t1.WriteIDOf("y")).Commit()
			ss[4].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t3.WriteIDOf("y")).Commit()
		})},
		{"lost-update", mk(func(b *history.Builder) {
			s1, s2, s3 := b.Session(), b.Session(), b.Session()
			t1 := s1.Txn().Write("x").Commit()
			s2.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
			s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
		})},
		// A long fork over blind writes: the x constraint between t1 and t2
		// is encoded before the readers arrive, then both of its sides grow
		// until neither holds.
		{"blind-long-fork", mk(func(b *history.Builder) {
			ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session()}
			t1 := ss[0].Txn().Write("x").Write("z").Commit()
			t2 := ss[1].Txn().Write("x").Write("y").Commit()
			ss[2].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t2.WriteIDOf("y")).Commit()
			ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("z", t1.WriteIDOf("z")).Commit()
		})},
		{"read-skew", mk(func(b *history.Builder) {
			s1, s2 := b.Session(), b.Session()
			wy := history.WriteID(2)
			s1.Txn().ReadGenesis("x").ReadObserved("y", wy).Commit()
			s2.Txn().Write("x").Write("y").Commit()
		})},
	}
	for _, tc := range named {
		for _, opts := range incrementalCombos() {
			auditPrefixes(t, tc.h, opts, 1, tc.name)
		}
	}
}

// TestIncrementalMatchesBatchOnFuzzCorpus runs the incremental-vs-batch
// differential over the oracle fuzz corpus, with varying batch sizes so
// audits land at different prefix boundaries.
func TestIncrementalMatchesBatchOnFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	combos := incrementalCombos()
	checked := 0
	for iter := 0; iter < 250; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		checked++
		batch := 1 + iter%2
		for _, opts := range combos {
			auditPrefixes(t, h, opts, batch, "fuzz")
		}
	}
	if checked < 120 {
		t.Fatalf("only %d histories validated; generator too restrictive", checked)
	}
}

// TestIncrementalMatchesBatchOnAnomalyStream audits a realistic growing
// stream: a BlindW-RW run with every injectable anomaly planted in turn,
// appended in batches, where the session must flip to Reject at the same
// boundary as the batch checker and stay rejected afterwards. The run is
// streamed as recorded and with its timestamps zeroed: without usable
// stamps the warm audits skip the timestamp stage and solve, and at
// radius 4 their passes prune.
func TestIncrementalMatchesBatchOnAnomalyStream(t *testing.T) {
	base, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 4, Txns: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// run copies the base run into a fresh history, which Inject then
	// appends to, with or without its timestamps.
	run := func(stamped bool) *history.History {
		h := history.New()
		for _, tx := range base.Txns[1:] {
			t2 := *tx
			if !stamped {
				t2.BeginAt, t2.CommitAt = 0, 0
			}
			h.Append(&t2)
		}
		return h
	}
	warmPruned := 0
	for _, stamped := range []bool{true, false} {
		for _, kind := range anomaly.Kinds() {
			h := anomaly.Inject(run(stamped), kind)
			if h == nil {
				continue
			}
			if err := h.Validate(); err != nil {
				continue // some injections are validation-level violations
			}
			ctx := fmt.Sprintf("anomaly/stamped=%v/%v", stamped, kind)
			for _, opts := range []core.Options{
				{Level: core.AdyaSI, SelfCheck: true},
				{Level: core.AdyaSI, SelfCheck: true, InitialK: 4},
				{Level: core.AdyaSI, SelfCheck: true, Parallelism: 4},
				{Level: core.Serializability, SelfCheck: true},
			} {
				reps := auditPrefixes(t, h, opts, 7, ctx)
				if stamped || opts.InitialK != 4 {
					continue
				}
				for _, rep := range reps[1:] {
					if rep.PrunedConstraints > 0 {
						warmPruned++
					}
				}
			}
		}
	}
	if warmPruned == 0 {
		t.Fatal("no warm audit of the unstamped stream pruned a constraint at radius 4")
	}
}
