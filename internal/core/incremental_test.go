package core

import (
	"fmt"
	"strings"
	"testing"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/runner"
	"viper/internal/workload"
)

// appendAll validates-then-audits after appending the given transactions,
// failing the test on a validation error.
func (inc *Incremental) mustAudit(t *testing.T, txns ...*history.Txn) *Report {
	t.Helper()
	for _, tx := range txns {
		t2 := *tx
		inc.Append(&t2)
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return inc.Audit()
}

// TestIncrementalWarmPathEngages asserts the second audit of an eligible
// session actually runs on the persistent solver rather than silently
// falling back to the cold path on every round.
func TestIncrementalWarmPathEngages(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 4, Txns: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(Options{Level: AdyaSI, SelfCheck: true})
	mid := h.Len() / 2
	rep := inc.mustAudit(t, h.Txns[1:1+mid]...)
	if rep.Outcome != Accept {
		t.Fatalf("first audit: %v", rep.Outcome)
	}
	if inc.warm != nil {
		t.Fatal("first audit must be batch-style (no warm state yet)")
	}
	rep = inc.mustAudit(t, h.Txns[1+mid:]...)
	if rep.Outcome != Accept {
		t.Fatalf("second audit: %v", rep.Outcome)
	}
	if inc.warm == nil {
		t.Fatal("second audit of an eligible session should retain warm solver state")
	}
	if rep.SelfCheckErr != nil {
		t.Fatalf("warm witness self-check: %v", rep.SelfCheckErr)
	}
	// Third audit with no appends: same warm solver, same verdict.
	if rep = inc.mustAudit(t); rep.Outcome != Accept || inc.warm == nil {
		t.Fatalf("no-op re-audit: outcome=%v warm=%v", rep.Outcome, inc.warm != nil)
	}
}

// TestWarmReportsCountTheAudit: a warm audit's report counts that
// audit's timestamp classification, so every audit of a session — the
// cold first audit, warm audits and re-audits with nothing appended —
// classifies at most the constraints it reports: TSDecided + TSResidual
// ≤ Constraints. A warm audit's encode span says whether it re-encoded
// the whole session (rebuild 1), as the first warm audit does, or only
// what changed (rebuild 0), as a re-audit with nothing appended does.
func TestWarmReportsCountTheAudit(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 600, Keys: 30, Seed: 1})
	tr := obs.NewTracer()
	inc := NewIncremental(Options{Level: AdyaSI, Tracer: tr})
	check := func(label string, rep *Report) {
		t.Helper()
		if rep.Outcome != Accept {
			t.Fatalf("%s: %v", label, rep.Outcome)
		}
		if rep.TSDecided == 0 || rep.TSDecided+rep.TSResidual > rep.Constraints {
			t.Fatalf("%s: %d ts-decided and %d residual of %d constraints", label, rep.TSDecided, rep.TSResidual, rep.Constraints)
		}
	}
	for lo := 1; lo < len(h.Txns); lo += 200 {
		hi := min(lo+200, len(h.Txns))
		check(fmt.Sprintf("audit of txns [%d, %d)", lo, hi), inc.mustAudit(t, h.Txns[lo:hi]...))
	}
	for i := 1; i <= 2; i++ {
		check(fmt.Sprintf("re-audit %d", i), inc.mustAudit(t))
	}

	if r := encodeRebuild(t, tr, 1); r != 1 {
		t.Fatalf("first warm audit: rebuild %d, want 1", r)
	}
	for audit := 3; audit <= 4; audit++ {
		if r := encodeRebuild(t, tr, audit); r != 0 {
			t.Fatalf("re-audit %d with nothing appended: rebuild %d, want 0", audit-2, r)
		}
	}
}

// encodeRebuild returns the rebuild attribute of the encode span of a
// session's audit (its index in the trace's audit spans).
func encodeRebuild(t *testing.T, tr *obs.Tracer, audit int) int64 {
	t.Helper()
	for _, s := range tr.Trace().Spans[audit].Children {
		if v, ok := s.Attrs["rebuild"]; ok && s.Name == "encode" {
			return v
		}
	}
	t.Fatalf("audit %d has no encode span with a rebuild attribute", audit)
	return -1
}

// TestWarmRebuildEncodesTheSession: a chain repartition drops the warm
// state and regenerates every written key, not only the dirty ones, so
// the audit re-encodes the whole session. On a read-modify-write stream
// whose chains grow at their tails every audit, each warm audit after the
// first rebuilds, and it reports the constraints and known edges of a
// fresh session's first warm audit of the same prefix.
func TestWarmRebuildEncodesTheSession(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 1200, Keys: 40, Seed: 3})
	tr := obs.NewTracer()
	inc := NewIncremental(Options{Level: AdyaSI, SelfCheck: true, Tracer: tr})
	repartitions := 0
	for audit, lo := 0, 1; lo < len(h.Txns); audit, lo = audit+1, lo+100 {
		hi := min(lo+100, len(h.Txns))
		rep := inc.mustAudit(t, h.Txns[lo:hi]...)
		if rep.Outcome != Accept || !rep.WitnessVerified {
			t.Fatalf("audit of txns [%d, %d): %v, witness verified %v", lo, hi, rep.Outcome, rep.WitnessVerified)
		}
		if audit < 2 || encodeRebuild(t, tr, audit) == 0 {
			continue // cold, the first warm audit, or no repartition
		}
		repartitions++
		fresh := NewIncremental(Options{Level: AdyaSI})
		fresh.mustAudit(t, h.Txns[1:hi]...)
		want := fresh.mustAudit(t)
		if rep.Constraints != want.Constraints || rep.KnownEdges != want.KnownEdges {
			t.Fatalf("rebuild at %d txns: %d constraints and %d known edges, a fresh session's first warm audit %d and %d",
				hi-1, rep.Constraints, rep.KnownEdges, want.Constraints, want.KnownEdges)
		}
	}
	if repartitions == 0 {
		t.Fatal("no warm audit after the first rebuilt the session")
	}
}

// TestIncrementalWarmNotUsedForRealTimeLevels: levels with real-time
// obligations restructure auxiliary edges per audit and must stay on the
// batch-style path.
func TestIncrementalWarmNotUsedForRealTimeLevels(t *testing.T) {
	h := figure2(t)
	for _, level := range []Level{GSI, StrongSessionSI, StrongSI} {
		inc := NewIncremental(Options{Level: level})
		inc.mustAudit(t, h.Txns[1:2]...)
		rep := inc.mustAudit(t, h.Txns[2:]...)
		if inc.warm != nil {
			t.Fatalf("%v: warm state must never be created", level)
		}
		want := CheckHistory(h, Options{Level: level})
		if rep.Outcome != want.Outcome {
			t.Fatalf("%v: incremental=%v batch=%v", level, rep.Outcome, want.Outcome)
		}
	}
}

// TestIncrementalRejectIsCached: once an audit rejects at the graph level,
// later audits return the cached report without re-solving (the checked
// levels are prefix-closed).
func TestIncrementalRejectIsCached(t *testing.T) {
	h := longFork(t)
	inc := NewIncremental(Options{Level: AdyaSI})
	rep := inc.mustAudit(t, h.Txns[1:]...)
	if rep.Outcome != Reject {
		t.Fatalf("long fork: %v", rep.Outcome)
	}
	// Append a harmless transaction; the verdict must remain the same
	// cached report (SI is prefix-closed, so no work is owed).
	extra := &history.Txn{Session: 9, Ops: []history.Op{
		{Kind: history.OpWrite, Key: "z", WriteID: 999}}}
	again := inc.mustAudit(t, extra)
	if again != rep {
		t.Fatal("rejection should be cached and returned verbatim")
	}
}

// TestIncrementalChainGrowthStaysSound: a later read-modify-write that
// merges two previously separate writer chains changes the chain
// partition; the session must detect it, drop the warm solver, and still
// match the batch verdict.
func TestIncrementalChainGrowthStaysSound(t *testing.T) {
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("x").Commit()
	s2.Txn().Write("x").Commit() // second chain on x
	s3.Txn().Write("y").Commit()
	h := b.MustHistory()

	inc := NewIncremental(Options{Level: AdyaSI})
	rep := inc.mustAudit(t, h.Txns[1:]...)
	if rep.Outcome != Accept {
		t.Fatalf("first audit: %v", rep.Outcome)
	}
	rep = inc.mustAudit(t) // no-op audit to create warm state
	if rep.Outcome != Accept || inc.warm == nil {
		t.Fatalf("warm-up audit: outcome=%v warm=%v", rep.Outcome, inc.warm != nil)
	}

	// An RMW of t1's write extends t1's chain: x's partition changes from
	// {t1},{t2} to {t1,t4},{t2} — old chain {t1} is gone (t1 now heads a
	// longer chain), so the warm encoding is stale and must be dropped.
	rmw := &history.Txn{Session: 3, Ops: []history.Op{
		{Kind: history.OpRead, Key: "x", Observed: t1.WriteIDOf("x")},
		{Kind: history.OpWrite, Key: "x", WriteID: 777},
	}}
	rep = inc.mustAudit(t, rmw)
	full := inc.History()
	want := CheckHistory(full, Options{Level: AdyaSI})
	if rep.Outcome != want.Outcome {
		t.Fatalf("after chain growth: incremental=%v batch=%v", rep.Outcome, want.Outcome)
	}
}

// TestIncrementalValidationRejectNotSticky: a prefix that fails validation
// (future read) is rejected by the wrapper layers without consulting the
// graph machinery, and the same session accepts once the missing write
// arrives — unlike graph rejections, validation rejections are not final.
func TestIncrementalValidationRejectNotSticky(t *testing.T) {
	inc := NewIncremental(Options{Level: AdyaSI})
	reader := &history.Txn{Session: 0, Ops: []history.Op{
		{Kind: history.OpRead, Key: "x", Observed: 5}}}
	r2 := *reader
	inc.Append(&r2)
	if err := inc.History().Validate(); err == nil {
		t.Fatal("future read should fail validation")
	}
	// The writer arrives; the full history now validates and is SI.
	writer := &history.Txn{Session: 1, Ops: []history.Op{
		{Kind: history.OpWrite, Key: "x", WriteID: 5}}}
	rep := inc.mustAudit(t, writer)
	if rep.Outcome != Accept {
		t.Fatalf("after writer arrived: %v", rep.Outcome)
	}
}

// TestIncrementalFirstAuditMatchesBatchPolygraph: the assembly of a
// session grown by Append must reproduce Build at one worker byte for
// byte, so the one-shot wrappers stay byte-compatible with a session's
// first audit.
func TestIncrementalFirstAuditMatchesBatchPolygraph(t *testing.T) {
	h, _, err := runner.Run(workload.NewRangeB(), runner.Config{Clients: 3, Txns: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{AdyaSI, Serializability, StrongSessionSI} {
		opts := Options{Level: level}
		want := Build(h, Options{Level: level, Parallelism: 1})
		inc := NewIncremental(opts)
		for _, tx := range h.Txns[1:] {
			t2 := *tx
			inc.Append(&t2)
		}
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		inc.update()
		comparePolygraphs(t, want, assembleStore(inc, regenStore(inc)), "assemble/"+level.String())
	}
}

// TestCheckRefusesUnvalidatedAppends: the indexes every check reads (the
// written keys, each write's writer) cover only the transactions the last
// Validate saw, so checking a history appended to since would skip the new
// transactions' keys and reads and could accept every injected anomaly.
// Every check entry point refuses such a history instead, naming the first
// unindexed transaction; once validated, the same history rejects.
func TestCheckRefusesUnvalidatedAppends(t *testing.T) {
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue
		}
		h := histgen.SI(histgen.Spec{Txns: 60, Keys: 6, MaxConcurrency: 4, Seed: 5})
		inc := NewIncremental(Options{Level: AdyaSI})
		for _, tx := range h.Txns[1:] {
			t2 := *tx
			inc.Append(&t2)
		}
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		if rep := inc.Audit(); rep.Outcome != Accept {
			t.Fatalf("%v: base history: %v", kind, rep.Outcome)
		}
		first := len(h.Txns)
		anomaly.Inject(h, kind) // appends to h, which is not re-validated
		for _, tx := range h.Txns[first:] {
			t2 := *tx
			inc.Append(&t2)
		}
		want := fmt.Sprintf("txn %d and later", first)
		for _, c := range []struct {
			name  string
			check func()
		}{
			{"CheckHistory", func() { CheckHistory(h, Options{Level: AdyaSI}) }},
			{"Build", func() { Build(h, Options{Level: AdyaSI}) }},
			{"read-committed", func() { CheckHistory(h, Options{Level: ReadCommitted}) }},
			{"matrix", func() { CheckMatrixHistory(h, Options{}) }},
			{"session audit", func() { inc.Audit() }},
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, want) {
						t.Fatalf("%v/%s: panic %q, want one naming %q", kind, c.name, msg, want)
					}
				}()
				c.check()
			}()
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		if rep := CheckHistory(h, Options{Level: AdyaSI}); rep.Outcome != Reject {
			t.Fatalf("%v: validated injected history: %v, want Reject", kind, rep.Outcome)
		}
	}
}
