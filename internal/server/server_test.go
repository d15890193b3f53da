package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/version"
)

// start launches a server on an httptest listener and returns a client
// for it. Shutdown and listener teardown are registered as cleanups.
func start(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.IdleTTL == 0 {
		cfg.IdleTTL = -1 // tests that want eviction opt in explicitly
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	cl := NewClient(ts.URL)
	cl.HTTP = &http.Client{Transport: tr}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
		tr.CloseIdleConnections()
	})
	return srv, cl
}

func encode(t *testing.T, h *history.History) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := histio.Encode(&buf, h); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func genHistory(t *testing.T, txns int, seed int64) *history.History {
	t.Helper()
	return histgen.SI(histgen.Spec{Txns: txns, Seed: seed})
}

func TestSessionLifecycle(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()

	info, err := cl.CreateSession(ctx, SessionConfig{Name: "order-audit", Level: "si"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !strings.HasPrefix(info.ID, "order-audit-") {
		t.Fatalf("id %q does not carry the requested name", info.ID)
	}
	if info.Level != "adya-si" {
		t.Fatalf("level = %q", info.Level)
	}

	list, err := cl.Sessions(ctx)
	if err != nil || len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list = %+v, %v", list, err)
	}

	if err := cl.DeleteSession(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cl.DeleteSession(ctx, info.ID); err == nil {
		t.Fatal("double delete succeeded")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if list, _ = cl.Sessions(ctx); len(list) != 0 {
		t.Fatalf("sessions survive deletion: %+v", list)
	}
}

func TestCreateSessionRejectsUnknownLevel(t *testing.T) {
	_, cl := start(t, Config{})
	_, err := cl.CreateSession(context.Background(), SessionConfig{Level: "hyperserializable"})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
}

// TestCreateSessionRejectsUnknownFields: a config field the daemon does
// not know, such as a retired option or a typo, is a 400 that names it,
// never a session running with defaults. Every field the client sends is
// known.
func TestCreateSessionRejectsUnknownFields(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	for field, body := range map[string]string{
		"solver_seed":      `{"level":"si","solver_seed":4}`,
		"disable_prunning": `{"disable_prunning":true}`,
	} {
		err := cl.do(ctx, http.MethodPost, "/v1/sessions", strings.NewReader(body), nil)
		ae, ok := err.(*APIError)
		if !ok || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, field) {
			t.Fatalf("%s: err = %v, want a 400 naming %q", body, err, field)
		}
	}
	if list, _ := cl.Sessions(ctx); len(list) != 0 {
		t.Fatalf("refused configs created sessions: %+v", list)
	}
	full := SessionConfig{
		Name: "full", Level: "si", ClockDriftNS: 1, Parallelism: 1, InitialK: 8,
		DisablePruning: true, DisableResolve: true,
		CheckpointEvery: 100, MaxLiveOps: 1000, CheckpointKeep: 10,
	}
	if _, err := cl.CreateSession(ctx, full); err != nil {
		t.Fatalf("every client field set: %v", err)
	}
}

// TestCreateSessionRejectsNegativeKnobs: a negative clock_drift_ns,
// parallelism or initial_k is malformed input, refused with a 400 that
// names the field; zero still selects the default.
func TestCreateSessionRejectsNegativeKnobs(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	for _, field := range []string{"clock_drift_ns", "parallelism", "initial_k"} {
		err := cl.do(ctx, http.MethodPost, "/v1/sessions", strings.NewReader(`{"`+field+`":-1}`), nil)
		ae, ok := err.(*APIError)
		if !ok || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, field) {
			t.Fatalf("%s -1: err = %v, want a 400 naming it", field, err)
		}
		if err := cl.do(ctx, http.MethodPost, "/v1/sessions", strings.NewReader(`{"`+field+`":0}`), nil); err != nil {
			t.Fatalf("%s 0: %v", field, err)
		}
	}
	if list, _ := cl.Sessions(ctx); len(list) != 3 {
		t.Fatalf("want the three zero-valued sessions only, got %+v", list)
	}
}

func TestMaxSessionsReturns429(t *testing.T) {
	_, cl := start(t, Config{MaxSessions: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cl.CreateSession(ctx, SessionConfig{}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if !IsSaturated(err) {
		t.Fatalf("third create: info=%+v err=%v", info, err)
	}
	if ae := err.(*APIError); ae.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After: %+v", ae)
	}
	// Deleting one frees a slot.
	list, _ := cl.Sessions(ctx)
	if err := cl.DeleteSession(ctx, list[0].ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.CreateSession(ctx, SessionConfig{}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestAppendChunked streams a history split at byte boundaries that cut
// records (and the header) in half; the session must decode exactly the
// same transactions as a whole-file read.
func TestAppendChunked(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	h := genHistory(t, 40, 1)
	raw := encode(t, h)

	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// Deliberately awkward split points: mid-header, mid-record.
	cuts := []int{3, 17, len(raw) / 3, len(raw) / 2, len(raw)}
	prev, total := 0, 0
	for i, cut := range cuts {
		last := i == len(cuts)-1
		res, err := cl.Append(ctx, info.ID, bytes.NewReader(raw[prev:cut]), last)
		if err != nil {
			t.Fatalf("append chunk %d: %v", i, err)
		}
		total += res.Appended
		prev = cut
		if last && !res.Complete {
			t.Fatal("final append did not mark the session complete")
		}
	}
	want := len(h.Txns) - 1 // genesis is not in the log
	if total != want {
		t.Fatalf("appended %d txns, want %d", total, want)
	}

	// Completing twice is a conflict.
	if _, err := cl.Complete(ctx, info.ID); err == nil {
		t.Fatal("second complete succeeded")
	} else if ae := err.(*APIError); ae.Status != http.StatusConflict {
		t.Fatalf("second complete: %v", err)
	}
}

// TestAppendMalformedMatchesCLIError asserts satellite parity: the 400
// body's structured detail renders exactly the string a local decode of
// the same broken stream produces (and therefore exactly what
// `viper -follow` prints).
func TestAppendMalformedMatchesCLIError(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	h := genHistory(t, 10, 2)
	raw := encode(t, h)

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"mid-record EOF", func(b []byte) []byte { return b[:len(b)-9] }},
		{"truncated final record", func(b []byte) []byte {
			i := bytes.LastIndexByte(b[:len(b)-1], '\n')
			return b[:i+1]
		}},
		{"garbage record", func(b []byte) []byte {
			return append(append([]byte{}, b...), []byte("{not json}\n")...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			broken := tc.mut(append([]byte{}, raw...))

			// Reference: what a local, complete-stream decode reports.
			dec := histio.NewDecoder(bytes.NewReader(broken))
			var want error
			for {
				if _, err := dec.Next(); err != nil {
					if err != io.EOF {
						want = err
					}
					break
				}
			}
			if want == nil {
				t.Fatal("mutation did not break the stream")
			}

			info, err := cl.CreateSession(ctx, SessionConfig{})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			_, err = cl.Append(ctx, info.ID, bytes.NewReader(broken), true)
			ae, ok := err.(*APIError)
			if !ok || ae.Status != http.StatusBadRequest {
				t.Fatalf("append: %v", err)
			}
			if ae.Detail == nil {
				t.Fatalf("400 without structured detail: %+v", ae)
			}
			if got := ae.Detail.String(); got != want.Error() {
				t.Fatalf("server detail:\n  %s\nlocal decode:\n  %s", got, want.Error())
			}

			// The failure is sticky: later appends report the same error.
			_, err2 := cl.Append(ctx, info.ID, strings.NewReader("x"), false)
			ae2, ok := err2.(*APIError)
			if !ok || ae2.Status != http.StatusBadRequest || ae2.Message != ae.Message {
				t.Fatalf("sticky ingest error lost: %v vs %v", err2, err)
			}
		})
	}
}

func TestOpQuotaReturns413(t *testing.T) {
	_, cl := start(t, Config{MaxSessionOps: 10})
	ctx := context.Background()
	h := genHistory(t, 30, 3)

	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_, err = cl.Append(ctx, info.ID, bytes.NewReader(encode(t, h)), true)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("append past quota: %v", err)
	}
}

func TestAuditVerdicts(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()

	// Accepting session: an SI-by-construction history.
	ok, err := cl.CreateSession(ctx, SessionConfig{Level: "si"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, ok.ID, bytes.NewReader(encode(t, genHistory(t, 60, 4))), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err := cl.Audit(ctx, ok.ID)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if doc.Outcome != "accept" || doc.Tool != "viperd" || doc.ToolVersion != version.Version {
		t.Fatalf("doc = outcome %q tool %q version %q", doc.Outcome, doc.Tool, doc.ToolVersion)
	}

	// Rejecting session: a lost update.
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	w := s1.Txn().Write("x").Commit()
	s2.Txn().ReadObserved("x", w.WriteIDOf("x")).Write("x").Commit()
	s3.Txn().ReadObserved("x", w.WriteIDOf("x")).Write("x").Commit()
	bad, err := cl.CreateSession(ctx, SessionConfig{Level: "si"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, bad.ID, bytes.NewReader(encode(t, b.MustHistory())), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err = cl.Audit(ctx, bad.ID)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if doc.Outcome != "reject" {
		t.Fatalf("lost update accepted: %+v", doc)
	}
}

// TestAuditMatrix drives the ?matrix=1 audit mode: the response is the
// verdict-matrix document (Level "matrix", one row per lattice level),
// and /metrics gains one per-level outcome counter per audit.
func TestAuditMatrix(t *testing.T) {
	srv, cl := start(t, Config{})
	ctx := context.Background()

	// A lost update: accepted by the polynomial chain (RC, RA, Causal),
	// rejected from AdyaSI up.
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	w := s1.Txn().Write("x").Commit()
	s2.Txn().ReadObserved("x", w.WriteIDOf("x")).Write("x").Commit()
	s3.Txn().ReadObserved("x", w.WriteIDOf("x")).Write("x").Commit()
	info, err := cl.CreateSession(ctx, SessionConfig{Level: "si"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, b.MustHistory())), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err := cl.AuditMatrix(ctx, info.ID)
	if err != nil {
		t.Fatalf("audit matrix: %v", err)
	}
	if doc.Level != "matrix" || doc.Outcome != "reject" {
		t.Fatalf("doc level=%q outcome=%q, want matrix/reject", doc.Level, doc.Outcome)
	}
	if doc.Matrix == nil {
		t.Fatal("matrix audit response has no matrix section")
	}
	if doc.Matrix.WeakestViolated != "adya-si" || doc.Matrix.StrongestSatisfied != "causal" {
		t.Fatalf("weakest=%q strongest=%q", doc.Matrix.WeakestViolated, doc.Matrix.StrongestSatisfied)
	}
	if len(doc.Matrix.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(doc.Matrix.Rows))
	}
	want := map[string]string{
		"read-committed":  "accept",
		"read-atomic":     "accept",
		"causal":          "accept",
		"adya-si":         "reject",
		"gsi":             "reject",
		"serializability": "reject",
	}
	for _, row := range doc.Matrix.Rows {
		if row.Outcome != want[row.Level] {
			t.Fatalf("level %s = %q, want %q", row.Level, row.Outcome, want[row.Level])
		}
	}

	// Per-level outcome counters, hyphens mapped to underscores.
	m := srv.Metrics().Snapshot()
	for metric, n := range map[string]int64{
		"viperd_matrix_audits_total":                 1,
		"viperd_audits_reject_total":                 1,
		"viperd_matrix_read_committed_accept_total":  1,
		"viperd_matrix_read_atomic_accept_total":     1,
		"viperd_matrix_causal_accept_total":          1,
		"viperd_matrix_adya_si_reject_total":         1,
		"viperd_matrix_gsi_reject_total":             1,
		"viperd_matrix_serializability_reject_total": 1,
	} {
		if m[metric] != n {
			t.Errorf("%s = %d, want %d", metric, m[metric], n)
		}
	}

	// An accepting session: a serial single-writer history satisfies
	// every level, and the matrix audit says so in one pass.
	b2 := history.NewBuilder()
	sess := b2.Session()
	w2 := sess.Txn().Write("a").Commit()
	sess.Txn().ReadObserved("a", w2.WriteIDOf("a")).Write("a").Commit()
	okInfo, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, okInfo.ID, bytes.NewReader(encode(t, b2.MustHistory())), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err = cl.AuditMatrix(ctx, okInfo.ID)
	if err != nil {
		t.Fatalf("audit matrix: %v", err)
	}
	if doc.Outcome != "accept" || !doc.Matrix.Satisfied || doc.Matrix.StrongestSatisfied != "serializability" {
		t.Fatalf("accepting matrix = outcome %q, matrix %+v", doc.Outcome, doc.Matrix)
	}
}

// TestAuditDeadlineReturns504 pins the request-deadline path: with a
// nanosecond audit budget the solve is interrupted before it starts and
// the response is a 504 whose document still carries outcome "timeout".
func TestAuditDeadlineReturns504(t *testing.T) {
	_, cl := start(t, Config{AuditTimeout: time.Nanosecond})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, genHistory(t, 20, 5))), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err := cl.Audit(ctx, info.ID)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if doc.Outcome != "timeout" {
		t.Fatalf("outcome = %q, want timeout", doc.Outcome)
	}
}

// TestSaturationReturns429 drives the admission gate to capacity and
// asserts the server refuses further audits immediately rather than
// queueing them.
func TestSaturationReturns429(t *testing.T) {
	srv, cl := start(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// Occupy the only worker slot directly, then let one audit queue.
	srv.tokens <- struct{}{}
	queued := make(chan error, 1)
	go func() {
		_, err := cl.Audit(ctx, info.ID)
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued audit never registered as waiting")
		}
		time.Sleep(time.Millisecond)
	}

	// Worker busy + queue full: the next audit is refused at once.
	_, err = cl.Audit(ctx, info.ID)
	if !IsSaturated(err) {
		t.Fatalf("audit under saturation: %v", err)
	}
	if ae := err.(*APIError); ae.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After: %+v", ae)
	}

	// Freeing the slot lets the queued audit run to completion.
	<-srv.tokens
	if err := <-queued; err != nil {
		t.Fatalf("queued audit: %v", err)
	}
	if n := srv.Metrics().Get("viperd_audit_saturations_total"); n != 1 {
		t.Fatalf("saturation counter = %d", n)
	}
}

func TestIdleEviction(t *testing.T) {
	srv, cl := start(t, Config{IdleTTL: 200 * time.Millisecond})
	ctx := context.Background()
	if _, err := cl.CreateSession(ctx, SessionConfig{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		list, err := cl.Sessions(ctx)
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(list) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted: %+v", list)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := srv.Metrics().Get("viperd_sessions_evicted_total"); n != 1 {
		t.Fatalf("eviction counter = %d", n)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" || h.Version != version.Version {
		t.Fatalf("health = %+v, %v", h, err)
	}

	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, genHistory(t, 10, 6))), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := cl.Audit(ctx, info.ID); err != nil {
		t.Fatalf("audit: %v", err)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, k := range []string{
		"viperd_sessions_created_total",
		"viperd_appends_total",
		"viperd_txns_ingested_total",
		"viperd_audits_total",
		"viperd_audits_accept_total",
		"viperd_http_requests_total",
	} {
		if m[k] < 1 {
			t.Errorf("metric %s = %d, want >= 1", k, m[k])
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, bytes.NewReader(encode(t, genHistory(t, 25, 7))), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := cl.Audit(ctx, info.ID); err != nil {
		t.Fatalf("audit: %v", err)
	}
	snap, err := cl.Progress(ctx, info.ID)
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	if snap.Txns == 0 {
		t.Fatalf("post-audit snapshot empty: %+v", snap)
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	cfg := Config{IdleTTL: -1}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)

	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, err := cl.CreateSession(ctx, SessionConfig{})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: %v", err)
	}
	if h, err := cl.Health(ctx); err == nil || h.Status == "ok" {
		t.Fatalf("healthz after shutdown: %+v, %v", h, err)
	}
}
