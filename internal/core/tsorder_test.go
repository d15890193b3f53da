package core

import (
	"math/rand"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/oracle"
	"viper/internal/runner"
	"viper/internal/workload"
)

// retryKs are the initial pruning radii every checkTSBoth row runs at:
// the default, and radii small enough that §3.5 pruning forces most
// constraints, so passes fail under their batch and retry at double k.
var retryKs = []int{0, 4, 32}

// checkTSBoth runs the same history with the timestamp fast path enabled
// and disabled, at every retryKs radius, and fails unless every verdict
// matches want (neither the fast path nor the radius may flip a verdict).
// Accepts additionally replay their witness. With the fast path off, the
// check takes the window stage (window.go), so each row is also checked
// against the full path, CheckPolygraph over Build's polygraph: the same
// verdict, a cycle of the same length on a reject, and a verified
// witness on an accept. So is the window stage with pruning off, once per
// history, which must run one exact pass over every pair. It returns the
// default radius's reports.
func checkTSBoth(t *testing.T, h *history.History, level Level, want Outcome, label string) (on, off *Report) {
	t.Helper()
	for i, k := range retryKs {
		kOn := CheckHistory(h, Options{Level: level, InitialK: k, SelfCheck: true})
		offOpts := Options{Level: level, InitialK: k, DisableTSFastPath: true, SelfCheck: true}
		kOff := CheckHistory(h, offOpts)
		// The G1b screen rejects before any polygraph exists, on either
		// path of CheckHistory; CheckPolygraph has no such screen.
		if kOff.Anomaly == "" {
			full := CheckPolygraph(Build(h, offOpts), offOpts)
			window := map[string]*Report{"window stage": kOff}
			if i == 0 {
				exactOpts := offOpts
				exactOpts.DisablePruning = true
				exact := CheckHistory(h, exactOpts)
				if exact.FinalK != 0 || exact.Retries != 0 {
					t.Fatalf("%s: window stage without pruning ran its last pass at k=%d after %d retries, want one exact pass",
						label, exact.FinalK, exact.Retries)
				}
				window["window stage without pruning"] = exact
			}
			for name, rep := range window {
				if full.Outcome != rep.Outcome {
					t.Fatalf("%s k=%d: %s %v != full polygraph %v", label, k, name, rep.Outcome, full.Outcome)
				}
				if full.Outcome == Reject && len(full.KnownCycle) != len(rep.KnownCycle) {
					t.Fatalf("%s k=%d: %s names a %d-edge cycle, full polygraph a %d-edge one",
						label, k, name, len(rep.KnownCycle), len(full.KnownCycle))
				}
				if rep.Outcome == Accept && !rep.WitnessVerified {
					t.Fatalf("%s k=%d: %s accept witness failed self-check", label, k, name)
				}
			}
			if full.Outcome == Accept && !full.WitnessVerified {
				t.Fatalf("%s k=%d: full-polygraph accept witness failed self-check", label, k)
			}
		}
		if kOn.Outcome != kOff.Outcome {
			t.Fatalf("%s k=%d: ts-on %v != ts-off %v", label, k, kOn.Outcome, kOff.Outcome)
		}
		if kOn.Outcome != want {
			t.Fatalf("%s k=%d: got %v, want %v", label, k, kOn.Outcome, want)
		}
		if kOff.TSDecided != 0 || kOff.TSResidual != 0 {
			t.Fatalf("%s k=%d: DisableTSFastPath reported fast-path work (%d decided, %d residual)",
				label, k, kOff.TSDecided, kOff.TSResidual)
		}
		if kOn.Outcome == Accept && !kOn.WitnessVerified {
			t.Fatalf("%s k=%d: ts-on accept witness failed self-check", label, k)
		}
		if kOff.Outcome == Accept && !kOff.WitnessVerified {
			t.Fatalf("%s k=%d: ts-off accept witness failed self-check", label, k)
		}
		if i == 0 {
			on, off = kOn, kOff
		}
	}
	return on, off
}

// blindW records a BlindW-RW run through the concurrent runner; without
// stamps its begin/commit timestamps are zeroed, so no timestamp pass
// runs and resolution and the §3.5 passes carry the check alone.
func blindW(t *testing.T, seed int64, stamps bool) *history.History {
	t.Helper()
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 8, Txns: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !stamps {
		for _, tx := range h.Txns[1:] {
			tx.BeginAt, tx.CommitAt = 0, 0
		}
	}
	return h
}

// TestTSFastPathDifferentialGenerated cross-checks the fast path on
// schedule-sampled SI histories (accepted by construction) across every
// polygraph level, including the Serializability node mapping (where the
// verdict is whatever it is — only on/off equality is asserted).
func TestTSFastPathDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := histgen.SI(histgen.Spec{Txns: 200, Keys: 6, MaxConcurrency: 6, AbortEvery: 9, Seed: seed})
		for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI} {
			on, _ := checkTSBoth(t, h, level, Accept, "generated SI")
			if on.TSUnusable != "" {
				t.Fatalf("seed %d level %v: generated history reported unusable timestamps: %s",
					seed, level, on.TSUnusable)
			}
		}
		onSer := CheckHistory(h, Options{Level: Serializability, SelfCheck: true})
		offSer := CheckHistory(h, Options{Level: Serializability, DisableTSFastPath: true, SelfCheck: true})
		if onSer.Outcome != offSer.Outcome {
			t.Fatalf("seed %d: serializability ts-on %v != ts-off %v", seed, onSer.Outcome, offSer.Outcome)
		}
	}
	// BlindW from a real engine, with and without its collector stamps.
	// Read-only and blind-write transactions on a correct SI engine are
	// serializable too.
	for seed := int64(1); seed <= 2; seed++ {
		for _, stamps := range []bool{true, false} {
			h := blindW(t, seed, stamps)
			for _, level := range []Level{AdyaSI, Serializability, StrongSessionSI} {
				checkTSBoth(t, h, level, Accept, "blindw")
			}
		}
	}
}

// TestTSFastPathDifferentialAnomalies injects every polygraph-level
// anomaly and checks both configurations reject, at Adya SI and at the
// two levels above it on either lattice branch: the timestamps of a
// violating history must never talk the checker into an accept, and an
// Unsat under timestamp assumptions must fall back rather than reject.
func TestTSFastPathDifferentialAnomalies(t *testing.T) {
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue // rejected before the polygraph is built
		}
		for seed := int64(0); seed < 4; seed++ {
			h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 120, Keys: 5, Seed: seed}), kind)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, level := range []Level{AdyaSI, Serializability, StrongSessionSI} {
				checkTSBoth(t, h, level, Reject, kind.String())
			}
		}
		h := anomaly.Inject(blindW(t, 3, true), kind)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		checkTSBoth(t, h, AdyaSI, Reject, "blindw "+kind.String())
	}
}

// blindWLostUpdate is a timestamped BlindW history with one lost update
// appended: a violation the timestamp pass cannot see.
func blindWLostUpdate(t *testing.T) *history.History {
	t.Helper()
	h := anomaly.Inject(blindW(t, 4, true), anomaly.LostUpdate)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

// misleadingStamps is an SI history whose stamps choose the impossible
// side of its one constraint. T2 reads T1's y, so it begins after T1
// commits, and T1's x must precede T2's: the other order closes
// B1→C1→B2→C2→B1. The stamps put T2 entirely before T1 and so choose that
// order. T3 reads T1's x, which keeps the constraint from being trivially
// decided.
func misleadingStamps(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	t1 := b.Session().Txn().At(10).Write("x").Write("y").CommitAt(11)
	b.Session().Txn().At(1).ReadObserved("y", t1.WriteIDOf("y")).Write("x").CommitAt(2)
	b.Session().Txn().At(20).ReadObserved("x", t1.WriteIDOf("x")).CommitAt(21)
	return b.MustHistory()
}

// TestTSFastPathLostUpdateRetries pins the pass sequence on a violation
// the timestamps hide: the timestamp pass fails under its chosen sides,
// and then the check rejects at once. With resolution on, full-set
// resolution finds the cycle. With it off — as when the closure exceeds
// its memory budget on large histories — the first §3.5 pass refutes the
// polygraph without using its batch, so the check rejects after one
// retry with pruning still in force instead of doubling k to exact.
func TestTSFastPathLostUpdateRetries(t *testing.T) {
	h := blindWLostUpdate(t)
	for _, noResolve := range []bool{false, true} {
		rep := CheckHistory(h, Options{Level: AdyaSI, DisableResolve: noResolve})
		if rep.Outcome != Reject {
			t.Fatalf("resolve off=%v: lost update %v", noResolve, rep.Outcome)
		}
		if rep.TSDecided == 0 {
			t.Fatalf("resolve off=%v: timestamps decided nothing, so no timestamp pass ran", noResolve)
		}
		if rep.Retries > 1 {
			t.Fatalf("resolve off=%v: rejected after %d retries, want at most 1", noResolve, rep.Retries)
		}
		if noResolve && rep.FinalK == 0 {
			t.Fatal("resolve off: rejected by the exact pass, want the first pruned pass")
		}
		if !noResolve && rep.KnownCycle == nil {
			t.Fatal("resolve on: rejected without the resolution cycle")
		}
	}
}

// TestTSFastPathMisleadingStampsAccept: stamps that choose the wrong side
// of a constraint fail the timestamp pass, which must then fall back and
// accept — through resolution, or (with resolution off) through the §3.5
// passes on the same solver.
func TestTSFastPathMisleadingStampsAccept(t *testing.T) {
	h := misleadingStamps(t)
	for _, opts := range []Options{
		{Level: AdyaSI, SelfCheck: true},
		{Level: AdyaSI, DisableResolve: true, SelfCheck: true},
	} {
		rep := CheckHistory(h, opts)
		if rep.Outcome != Accept || !rep.WitnessVerified {
			t.Fatalf("resolve off=%v: %v (verified %v)", opts.DisableResolve, rep.Outcome, rep.WitnessVerified)
		}
		if rep.TSDecided != 1 || rep.Retries != 1 {
			t.Fatalf("resolve off=%v: %d decided, %d retries; want the timestamp pass to decide 1 and fail once",
				opts.DisableResolve, rep.TSDecided, rep.Retries)
		}
	}
}

// TestTSFastPathDifferentialFuzz mutates observations of generated SI
// histories and checks verdict equality on whatever comes out; tiny
// cases are additionally compared against the exhaustive oracle.
func TestTSFastPathDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		spec := histgen.Spec{Txns: 40, Keys: 3, MaxConcurrency: 4, Seed: int64(100 + iter)}
		tiny := iter%2 == 0
		if tiny {
			spec.Txns, spec.Keys = 7, 2
		}
		h := histgen.SI(spec)
		for m := rng.Intn(3); m >= 0; m-- {
			mutateObservation(h, rng)
		}
		if err := h.Validate(); err != nil {
			continue // mutation broke a validation invariant: not our input
		}
		on := CheckHistory(h, Options{Level: AdyaSI})
		off := CheckHistory(h, Options{Level: AdyaSI, DisableTSFastPath: true})
		if on.Outcome != off.Outcome {
			t.Fatalf("iter %d: ts-on %v != ts-off %v", iter, on.Outcome, off.Outcome)
		}
		if tiny {
			want := Reject
			if oracle.IsSI(h) {
				want = Accept
			}
			if on.Outcome != want {
				t.Fatalf("iter %d: checker %v, oracle %v", iter, on.Outcome, want)
			}
		}
	}
}

// TestTSFastPathDifferentialIncremental streams a history that turns bad
// mid-stream through two warm sessions (fast path on / off) and checks
// the verdicts agree at every audit. The interleaved generation also
// exercises the non-monotonic ingest path: concurrent transactions begin
// before their predecessors commit, so the maintained order goes dirty
// and is rebuilt cold each audit.
func TestTSFastPathDifferentialIncremental(t *testing.T) {
	bad := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 300, Keys: 6, MaxConcurrency: 5, Seed: 13}), anomaly.LostUpdate)
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	audit := func(inc *Incremental) *Report {
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		return inc.Audit()
	}
	on := NewIncremental(Options{Level: AdyaSI})
	off := NewIncremental(Options{Level: AdyaSI, DisableTSFastPath: true})
	const step = 60
	var last *Report
	for at := 1; at < len(bad.Txns); at += step {
		hi := at + step
		if hi > len(bad.Txns) {
			hi = len(bad.Txns)
		}
		for _, txn := range bad.Txns[at:hi] {
			t2 := *txn
			on.Append(&t2)
			t3 := *txn
			off.Append(&t3)
		}
		a, b := audit(on), audit(off)
		if a.Outcome != b.Outcome {
			t.Fatalf("audit at %d txns: ts-on %v != ts-off %v", hi, a.Outcome, b.Outcome)
		}
		if a.TSUnusable != "" {
			t.Fatalf("audit at %d txns: generated history reported unusable timestamps: %s", hi, a.TSUnusable)
		}
		last = a
	}
	if last == nil || last.Outcome != Reject {
		t.Fatalf("final audit: %+v, want Reject", last)
	}
}

// TestTSFastPathIncrementalMonotone streams stamped histories through a
// warm session: a serial history (appended in timestamp order), and a
// 24-client runner history whose concurrent transactions arrive out of
// timestamp order. Every audit accepts with a verified witness and the
// fast path deciding constraints. On the concurrent stream every warm
// audit also decides every live constraint and accepts on the timestamp
// order alone, without a solver pass — the property a stamped daemon
// stream rests on.
func TestTSFastPathIncrementalMonotone(t *testing.T) {
	concurrent, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 24, Txns: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		h          *history.History
		step       int
		concurrent bool
	}{
		{"serial", histgen.SI(histgen.Spec{Txns: 240, Keys: 5, MaxConcurrency: 1, Seed: 5}), 60, false},
		{"runner-24", concurrent, 200, true},
	} {
		inc := NewIncremental(Options{Level: AdyaSI, SelfCheck: true})
		var last *Report
		for at := 1; at < len(tc.h.Txns); at += tc.step {
			hi := min(at+tc.step, len(tc.h.Txns))
			for _, txn := range tc.h.Txns[at:hi] {
				t2 := *txn
				inc.Append(&t2)
			}
			if err := inc.History().Validate(); err != nil {
				if !tc.concurrent {
					t.Fatal(err)
				}
				continue // a read of a write appended later: not a valid prefix
			}
			warm := last != nil
			last = inc.Audit()
			if last.Outcome != Accept {
				t.Fatalf("%s: audit at %d txns: %v, want Accept", tc.name, hi, last.Outcome)
			}
			if !last.WitnessVerified {
				t.Fatalf("%s: audit at %d txns: witness failed self-check", tc.name, hi)
			}
			if !tc.concurrent || !warm {
				continue
			}
			if inc.warm == nil {
				t.Fatalf("%s: audit at %d txns ran cold", tc.name, hi)
			}
			if last.TSDecided == 0 || last.TSResidual != 0 {
				t.Fatalf("%s: warm audit at %d txns: %d decided, %d residual; want every live constraint decided",
					tc.name, hi, last.TSDecided, last.TSResidual)
			}
			if last.Phases.Solve != 0 {
				t.Fatalf("%s: warm audit at %d txns reached the solver (%v solving, %d retries)",
					tc.name, hi, last.Phases.Solve, last.Retries)
			}
		}
		if last.TSDecided == 0 {
			t.Fatalf("%s: warm fast path never decided a constraint", tc.name)
		}
	}
}

// TestTSFastPathPureAccept pins the zero-solver accept: on a serial
// timestamped history every constraint is decided and the chosen sides
// follow the topological order, so the batch check accepts with no edge
// variables, no solver work, and a verified witness.
func TestTSFastPathPureAccept(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 300, Keys: 5, MaxConcurrency: 1, Seed: 3})
	rep := CheckHistory(h, Options{Level: AdyaSI, SelfCheck: true})
	if rep.Outcome != Accept {
		t.Fatalf("outcome %v, want Accept", rep.Outcome)
	}
	if rep.Constraints == 0 {
		t.Fatal("degenerate history: no constraints to decide")
	}
	if rep.TSDecided != rep.Constraints || rep.TSResidual != 0 {
		t.Fatalf("decided %d of %d constraints (%d residual), want all",
			rep.TSDecided, rep.Constraints, rep.TSResidual)
	}
	if rep.EdgeVars != 0 || rep.Solver.Decisions != 0 {
		t.Fatalf("pure accept touched the solver: %d edge vars, %d decisions",
			rep.EdgeVars, rep.Solver.Decisions)
	}
	if !rep.WitnessVerified {
		t.Fatal("witness failed self-check")
	}
}

// TestTSFastPathUnusableMixed pins satellite 3: a history where only some
// transactions carry timestamps must deterministically disable the fast
// path and report why, in both the batch and the warm incremental paths —
// never derive an order from zero-valued stamps.
func TestTSFastPathUnusableMixed(t *testing.T) {
	mixed := func() []*history.Txn {
		return []*history.Txn{
			{Session: 0, BeginAt: 1, CommitAt: 2,
				Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}},
			// No stamps: a hand-built or Jepsen-imported transaction.
			{Session: 1, SeqInSession: 0,
				Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}},
			{Session: 2, BeginAt: 5, CommitAt: 6,
				Ops: []history.Op{{Kind: history.OpRead, Key: "x", Observed: 2}}},
		}
	}
	h := history.New()
	for _, txn := range mixed() {
		h.Append(txn)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.TSUnusable == "" {
		t.Fatal("mixed-timestamp history did not report unusable timestamps")
	}
	if rep.TSDecided != 0 || rep.TSResidual != 0 {
		t.Fatalf("unusable timestamps still classified constraints (%d decided, %d residual)",
			rep.TSDecided, rep.TSResidual)
	}
	off := CheckHistory(h, Options{Level: AdyaSI, DisableTSFastPath: true})
	if rep.Outcome != off.Outcome {
		t.Fatalf("ts-on %v != ts-off %v", rep.Outcome, off.Outcome)
	}
	if off.TSUnusable != "" {
		t.Fatal("DisableTSFastPath still probed timestamp usability")
	}

	// Warm incremental variant: the first (cold) audit and the second
	// (warm) one both report it.
	inc := NewIncremental(Options{Level: AdyaSI})
	for _, txn := range mixed() {
		t2 := *txn
		inc.Append(&t2)
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}
	if rep := inc.Audit(); rep.TSUnusable == "" {
		t.Fatal("cold audit did not report unusable timestamps")
	}
	inc.Append(&history.Txn{Session: 3, BeginAt: 7, CommitAt: 8,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "y", WriteID: 3}}})
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}
	rep2 := inc.Audit()
	if rep2.TSUnusable == "" {
		t.Fatal("warm audit did not report unusable timestamps")
	}
	if rep2.Outcome != Accept {
		t.Fatalf("warm audit: %v, want Accept", rep2.Outcome)
	}
}

// TestTSUsableReasons pins the usability scan's verdicts: nil history,
// genesis-only, zero stamps, and commit-before-begin.
func TestTSUsableReasons(t *testing.T) {
	if ok, _ := tsUsable(nil); ok {
		t.Fatal("nil history reported usable")
	}
	if ok, reason := tsUsable(history.New()); !ok {
		t.Fatalf("genesis-only history unusable: %s", reason)
	}
	h := history.New()
	h.Append(&history.Txn{Session: 0, BeginAt: 10, CommitAt: 4,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	if ok, reason := tsUsable(h); ok || reason == "" {
		t.Fatalf("commit-before-begin accepted (ok=%v reason=%q)", ok, reason)
	}
	// Aborted transactions are exempt: they contribute no edges.
	h2 := history.New()
	h2.Append(&history.Txn{Session: 0, BeginAt: 1, CommitAt: 2,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	h2.Append(&history.Txn{Session: 1, Status: history.StatusAborted,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}})
	if ok, reason := tsUsable(h2); !ok {
		t.Fatalf("aborted zero-stamp txn flagged: %s", reason)
	}
}

// TestTSOrderDriftBoundaryStrict pins the strict drift semantics of the
// classification against realtime.go's: with gap g between one writer's
// commit and the next writer's begin, drift == g must leave the
// constraint undecided (ts(j) − ts(i) > drift is strict) while
// drift == g−1 decides it. This is the boundary agreement the tentpole
// requires between tsorder.go and realtime.go.
func TestTSOrderDriftBoundaryStrict(t *testing.T) {
	h := history.New()
	h.Append(&history.Txn{Session: 0, BeginAt: 1, CommitAt: 2,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	h.Append(&history.Txn{Session: 1, BeginAt: 100, CommitAt: 101,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	classify := func(drift time.Duration) tsClassified {
		pg := Build(h, Options{Level: AdyaSI})
		if len(pg.Cons) != 1 {
			t.Fatalf("want exactly one WW constraint, got %d", len(pg.Cons))
		}
		return pg.tsClassify(consSet{cons: pg.Cons, at: []int32{0}}, drift.Nanoseconds())
	}
	// Largest edge gap on the winning side is b(T2) − c(T1) = 98.
	if tc := classify(97 * time.Nanosecond); tc.decided != 1 {
		t.Fatalf("drift just under the gap: decided=%d, want 1", tc.decided)
	}
	if tc := classify(98 * time.Nanosecond); tc.decided != 0 {
		t.Fatalf("drift equal to the gap must not decide (strict relation): decided=%d", tc.decided)
	}
}
