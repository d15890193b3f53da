package core

import (
	"fmt"
	"strings"
	"testing"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
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
		inc.regen()
		comparePolygraphs(t, want, assembleStore(inc), "assemble/"+level.String())
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
