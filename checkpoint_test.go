package viper

import (
	"encoding/json"
	"errors"
	"testing"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/oracle"
)

// streamWithPolicy feeds h through a Checker in chunks, auditing after
// each; returns the last result.
func streamWithPolicy(t *testing.T, h *History, policy CheckpointPolicy, chunk int) (*Checker, *Result) {
	t.Helper()
	c := NewChecker(Options{Level: AdyaSI})
	c.SetCheckpointPolicy(policy)
	var res *Result
	for lo := 1; lo < len(h.Txns); lo += chunk {
		hi := lo + chunk
		if hi > len(h.Txns) {
			hi = len(h.Txns)
		}
		c.Append(h.Txns[lo:hi]...)
		res = c.Audit()
		if res.CheckpointErr != nil {
			t.Fatalf("checkpoint: %v", res.CheckpointErr)
		}
		if res.Outcome == Reject {
			return c, res
		}
	}
	return c, res
}

func TestCheckerAutoCheckpointPolicy(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 600, Keys: 24, MaxConcurrency: 4, Seed: 3})
	c, res := streamWithPolicy(t, h, CheckpointPolicy{EveryTxns: 100, Keep: 25}, 50)
	if res.Outcome != Accept {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	cert := c.Certificate()
	if cert.Checkpoints == 0 {
		t.Fatal("policy never triggered")
	}
	if c.LifetimeLen() != h.Len() {
		t.Fatalf("LifetimeLen %d != %d", c.LifetimeLen(), h.Len())
	}
	if c.Len() >= 200 {
		t.Fatalf("live window %d not bounded by the policy", c.Len())
	}
	if c.LiveOps() >= c.LifetimeOps() {
		t.Fatalf("live ops %d should be below lifetime %d", c.LiveOps(), c.LifetimeOps())
	}
	if rep := res.Report; rep.Checkpoints != cert.Checkpoints-1 && rep.Checkpoints != cert.Checkpoints {
		// The report was stamped during the audit; a checkpoint right after
		// it may not be reflected yet — but it must never overcount.
		t.Fatalf("report checkpoints %d vs cert %d", rep.Checkpoints, cert.Checkpoints)
	}

	// The snapshot (live window + fence) is independently batch-checkable.
	snap := c.History()
	if snap.Fence() == nil {
		t.Fatal("snapshot should carry the fence")
	}
	res2 := Check(snap, Options{Level: AdyaSI})
	if res2.Outcome != Accept {
		t.Fatalf("batch check of compacted snapshot: %v (violation %v)", res2.Outcome, res2.Violation)
	}
}

// TestCheckerReportDocMatchesSnapshot pins Checker.ReportDoc, which reads
// the live window, to the document a validated History snapshot gives:
// after plain audits, after automatic checkpoints, and after an audit
// that fails validation.
func TestCheckerReportDocMatchesSnapshot(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 300, Keys: 16, MaxConcurrency: 4, Seed: 5})
	c := NewChecker(Options{Level: AdyaSI})
	c.SetCheckpointPolicy(CheckpointPolicy{EveryTxns: 100, Keep: 25})
	same := func(res *Result) {
		t.Helper()
		snap := c.History()
		_ = snap.Validate() // a failure is already in res.Violation
		want := core.BuildReportDoc("viperd", "", snap, res.ParseTime, res.Report, res.Violation, c.opts, nil)
		a, errA := json.Marshal(c.ReportDoc("viperd", res))
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("ReportDoc differs from the snapshot's document (%v, %v):\n%s\n%s", errA, errB, a, b)
		}
	}
	for lo := 1; lo < len(h.Txns); lo += 40 {
		hi := min(lo+40, len(h.Txns))
		c.Append(h.Txns[lo:hi]...)
		same(c.Audit())
	}
	if c.Certificate().Checkpoints == 0 {
		t.Fatal("policy never triggered")
	}
	// A read of a write id nobody wrote fails validation before the
	// session index is rebuilt.
	last := h.Txns[len(h.Txns)-1]
	c.Append(&Txn{Session: last.Session, SeqInSession: last.SeqInSession + 1, Status: history.StatusCommitted,
		Ops: []Op{{Kind: history.OpRead, Key: "k0", Observed: 1 << 40}}})
	res := c.Audit()
	if res.Violation == nil {
		t.Fatal("audit of an unknown write id passed validation")
	}
	same(res)
}

// TestCheckerMatrixDocMatchesSnapshot is the matrix twin of
// TestCheckerReportDocMatchesSnapshot: Checker.MatrixDoc, which reads the
// live window, equals (after Normalize) the document a validated History
// snapshot gives, before and after a checkpoint, and after a matrix audit
// that fails validation.
func TestCheckerMatrixDocMatchesSnapshot(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 300, Keys: 16, MaxConcurrency: 4, Seed: 5})
	c := NewChecker(Options{Level: AdyaSI})
	same := func(res *MatrixResult) {
		t.Helper()
		snap := c.History()
		_ = snap.Validate() // a failure is already in res.Violation
		want := core.BuildMatrixDoc("viperd", "", snap, res.ParseTime, res.Matrix, res.Violation, c.opts, nil)
		got := c.MatrixDoc("viperd", res)
		want.Normalize()
		got.Normalize()
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("MatrixDoc differs from the snapshot's document (%v, %v):\n%s\n%s", errA, errB, a, b)
		}
	}
	checkpointed := false
	for lo := 1; lo < len(h.Txns); lo += 60 {
		hi := min(lo+60, len(h.Txns))
		c.Append(h.Txns[lo:hi]...)
		same(c.AuditMatrix())
		if !checkpointed && c.Len() >= 150 {
			if res := c.Audit(); res.Outcome != Accept {
				t.Fatalf("audit before the checkpoint: %v", res.Outcome)
			}
			if _, err := c.Checkpoint(40); err != nil {
				t.Fatal(err)
			}
			checkpointed = c.Certificate().Checkpoints > 0
			same(c.AuditMatrix())
		}
	}
	if !checkpointed {
		t.Fatal("no checkpoint was taken")
	}
	last := h.Txns[len(h.Txns)-1]
	c.Append(&Txn{Session: last.Session, SeqInSession: last.SeqInSession + 1, Status: history.StatusCommitted,
		Ops: []Op{{Kind: history.OpRead, Key: "k0", Observed: 1 << 40}}})
	res := c.AuditMatrix()
	if res.Violation == nil {
		t.Fatal("matrix audit of an unknown write id passed validation")
	}
	same(res)
}

func TestCheckerMaxLiveOpsTrigger(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 400, Keys: 16, Seed: 9})
	c, res := streamWithPolicy(t, h, CheckpointPolicy{MaxLiveOps: 300}, 40)
	if res.Outcome != Accept {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	if c.Certificate().Checkpoints == 0 {
		t.Fatal("op-watermark trigger never fired")
	}
}

func TestCheckerCheckpointPolicyWrongLevel(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 60, Seed: 2})
	c := NewChecker(Options{Level: GSI})
	c.SetCheckpointPolicy(CheckpointPolicy{EveryTxns: 10})
	c.Append(h.Txns[1:]...)
	res := c.Audit()
	if res.Outcome != Accept {
		t.Fatalf("outcome: %v", res.Outcome)
	}
	if res.CheckpointErr == nil {
		t.Fatal("policy on a real-time level must surface CheckpointErr")
	}
	if res.Compacted != 0 || c.Certificate().Checkpoints != 0 {
		t.Fatal("nothing may have been compacted")
	}
}

// TestCheckpointAnomalyStreamParity streams a healthy prefix (with
// checkpointing) and then an injected anomaly tail: the checkpointing and
// unbounded sessions must agree on the verdict, and for validation-level
// anomalies on the violation class.
func TestCheckpointAnomalyStreamParity(t *testing.T) {
	spec := histgen.Spec{Txns: 200, Keys: 20, MaxConcurrency: 4, Seed: 6}
	for _, kind := range anomaly.Kinds() {
		// Two identical bases (the generator is deterministic); the anomaly
		// appends its transactions to the end.
		bad := anomaly.Inject(histgen.SI(spec), kind)

		audit := func(c *Checker) *Result {
			res := c.Audit()
			if res.CheckpointErr != nil {
				t.Fatalf("%v: checkpoint: %v", kind, res.CheckpointErr)
			}
			return res
		}

		cp := NewChecker(Options{Level: AdyaSI})
		cp.SetCheckpointPolicy(CheckpointPolicy{EveryTxns: 60, Keep: 15})
		unb := NewChecker(Options{Level: AdyaSI})

		const chunk = 40
		var cpRes, unbRes *Result
		for lo := 1; lo < len(bad.Txns); lo += chunk {
			hi := lo + chunk
			if hi > len(bad.Txns) {
				hi = len(bad.Txns)
			}
			cp.Append(bad.Txns[lo:hi]...)
			unb.Append(bad.Txns[lo:hi]...)
			cpRes, unbRes = audit(cp), audit(unb)
			if cpRes.Outcome != unbRes.Outcome {
				t.Fatalf("%v @%d: checkpointed=%v unbounded=%v", kind, hi, cpRes.Outcome, unbRes.Outcome)
			}
			if cpRes.Outcome == Reject {
				break
			}
		}
		if unbRes.Outcome != Reject {
			t.Fatalf("%v: unbounded session accepted an injected anomaly", kind)
		}
		if kind.ValidationLevel() {
			var cpErr, unbErr *history.ValidationError
			if !errors.As(cpRes.Violation, &cpErr) || !errors.As(unbRes.Violation, &unbErr) {
				t.Fatalf("%v: expected validation rejects, got %v / %v", kind, cpRes.Violation, unbRes.Violation)
			}
			if cpErr.Kind != unbErr.Kind {
				t.Fatalf("%v: violation class diverged: %v vs %v", kind, cpErr.Kind, unbErr.Kind)
			}
			if cpErr.Txn != unbErr.Txn {
				t.Fatalf("%v: violation names txn %d vs %d (external ids must match)", kind, cpErr.Txn, unbErr.Txn)
			}
		} else {
			// Graph-level rejects: when both sessions surface a
			// counterexample cycle in the known graph, the rendered node
			// names must agree — the checkpointed session's internal node
			// ids differ by the fenced offset but the diagnostics must not.
			// (Solver-derived rejects carry no known cycle; whether the
			// known graph already forces one can depend on window size, so
			// only compare when both rendered.)
			cycleNames := func(c *Checker, rep *core.Report) map[string]bool {
				h := c.History()
				if err := h.Validate(); err != nil {
					t.Fatalf("%v: revalidate: %v", kind, err)
				}
				pg := core.Build(h, core.Options{Level: core.AdyaSI})
				names := make(map[string]bool)
				for _, ke := range rep.KnownCycle {
					names[pg.NodeName(ke.From)] = true
					names[pg.NodeName(ke.To)] = true
				}
				return names
			}
			if cpRes.Report.KnownCycle != nil && unbRes.Report.KnownCycle != nil {
				cpNames, unbNames := cycleNames(cp, cpRes.Report), cycleNames(unb, unbRes.Report)
				if len(cpNames) != len(unbNames) {
					t.Fatalf("%v: cycle node sets diverge: %v vs %v", kind, cpNames, unbNames)
				}
				for n := range unbNames {
					if !cpNames[n] {
						t.Fatalf("%v: checkpointed cycle misses node %s: %v vs %v", kind, n, cpNames, unbNames)
					}
				}
			}
		}
		if cp.Certificate().Checkpoints == 0 {
			t.Fatalf("%v: the healthy prefix never checkpointed", kind)
		}
	}
}

// TestCheckpointFuzzOracle: tiny random histories (the exhaustive oracle
// is exponential and tractable only to ~8 transactions), aggressive
// checkpointing. Soundness is one-directional: whenever the checkpointing
// session accepts, the unbounded batch checker and the brute-force oracle
// must accept too. A reject of a genuinely-SI history is permitted — a
// too-small Keep can fence a version some long-running reader still
// needs — but only under the dedicated ErrStaleFencedRead class, and the
// unbounded checker must still accept it.
func TestCheckpointFuzzOracle(t *testing.T) {
	var checkpoints, accepted int
	for seed := int64(0); seed < 25; seed++ {
		h := histgen.SI(histgen.Spec{Txns: 8, Keys: 3, MaxConcurrency: 3, ReadsPerTxn: 2, WritesPerTxn: 2, Seed: seed})
		c, res := streamWithPolicy(t, h, CheckpointPolicy{EveryTxns: 3, Keep: 1}, 2)
		if res.Outcome == Accept {
			accepted++
			if batch := Check(h, Options{Level: AdyaSI}); batch.Outcome != Accept {
				t.Fatalf("seed %d: batch disagreement: %v", seed, batch.Outcome)
			}
			if !oracle.IsSI(h) {
				t.Fatalf("seed %d: oracle rejects a history both checkers accept", seed)
			}
		} else {
			var verr *history.ValidationError
			if !errors.As(res.Violation, &verr) || verr.Kind != history.ErrStaleFencedRead {
				t.Fatalf("seed %d: reject of an SI history with class %v, want ErrStaleFencedRead", seed, res.Violation)
			}
			if batch := Check(h, Options{Level: AdyaSI}); batch.Outcome != Accept {
				t.Fatalf("seed %d: unbounded checker rejects a generated SI history: %v", seed, batch.Violation)
			}
		}
		checkpoints += c.Certificate().Checkpoints
	}
	// Histories this small may individually shrink to nothing, but across
	// 25 seeds the aggressive policy must have fired somewhere — and most
	// seeds must survive compaction unscathed.
	if checkpoints == 0 {
		t.Fatal("aggressive policy never checkpointed on any seed")
	}
	if accepted < 15 {
		t.Fatalf("only %d/25 seeds accepted — compaction loses far too much", accepted)
	}
}

// TestCheckpointBoundedMemoryStream is the acceptance-scale run: 100k+
// transactions streamed through a checkpointing Checker, with the gauges
// proving the live window stays bounded while the lifetime counters grow.
func TestCheckpointBoundedMemoryStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream; skipped with -short")
	}
	const total = 100_000
	h := histgen.SI(histgen.Spec{Txns: total, Keys: 500, MaxConcurrency: 8, Seed: 1})
	c := NewChecker(Options{Level: AdyaSI})
	c.SetCheckpointPolicy(CheckpointPolicy{EveryTxns: 4000, Keep: 1000})

	const chunk = 2000
	var maxLiveTxns int
	var maxHistBytes int64
	for lo := 1; lo < len(h.Txns); lo += chunk {
		hi := lo + chunk
		if hi > len(h.Txns) {
			hi = len(h.Txns)
		}
		c.Append(h.Txns[lo:hi]...)
		res := c.Audit()
		if res.Outcome != Accept {
			t.Fatalf("@%d: %v (violation %v)", hi, res.Outcome, res.Violation)
		}
		if res.CheckpointErr != nil {
			t.Fatalf("@%d: checkpoint: %v", hi, res.CheckpointErr)
		}
		if res.Report.LiveTxns > maxLiveTxns {
			maxLiveTxns = res.Report.LiveTxns
		}
		if res.Report.HistoryBytes > maxHistBytes {
			maxHistBytes = res.Report.HistoryBytes
		}
	}
	if c.LifetimeLen() != total {
		t.Fatalf("lifetime %d != %d", c.LifetimeLen(), total)
	}
	// The gauges must prove boundedness: the live window never grew past
	// the policy threshold plus one audit period.
	if bound := 4000 + chunk; maxLiveTxns > bound {
		t.Fatalf("live window peaked at %d txns (bound %d)", maxLiveTxns, bound)
	}
	if c.Len() > 4000+chunk {
		t.Fatalf("final live window %d not bounded", c.Len())
	}
	t.Logf("streamed %d txns: peak live %d txns / %.1f MB history, %d checkpoints, cert %.1f MB",
		total, maxLiveTxns, float64(maxHistBytes)/(1<<20),
		c.Certificate().Checkpoints, float64(c.Certificate().Bytes)/(1<<20))
}
