package server

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
)

// appendInterleaved streams raw into the session in n byte-chunks,
// auditing after each, and returns the last audit document. Byte cuts
// deliberately ignore record boundaries — the tail decoder buffers
// partial lines across audits.
func appendInterleaved(t *testing.T, cl *Client, id string, raw []byte, n int) (last string) {
	t.Helper()
	ctx := context.Background()
	step := len(raw)/n + 1
	for lo := 0; lo < len(raw); lo += step {
		hi := lo + step
		if hi > len(raw) {
			hi = len(raw)
		}
		final := hi == len(raw)
		if _, err := cl.Append(ctx, id, bytes.NewReader(raw[lo:hi]), final); err != nil {
			t.Fatalf("append [%d:%d): %v", lo, hi, err)
		}
		doc, err := cl.Audit(ctx, id)
		if err != nil {
			t.Fatalf("audit @%d: %v", hi, err)
		}
		last = doc.Outcome
	}
	return last
}

// TestCheckpointQuotaRecovery: the op quota meters the live window, so a
// session with a checkpoint policy streams a history that would poison a
// policy-free session with 413.
func TestCheckpointQuotaRecovery(t *testing.T) {
	_, cl := start(t, Config{MaxSessionOps: 400})
	ctx := context.Background()
	raw := encode(t, genHistory(t, 400, 21)) // ~1000 ops, 2.5x the quota

	// Without a policy the quota is a hard lifetime ceiling.
	plain, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_, err = cl.Append(ctx, plain.ID, bytes.NewReader(raw), true)
	if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("policy-free append past quota: %v", err)
	}

	// With a policy, interleaved audits compact the checked prefix and the
	// same stream fits.
	cp, err := cl.CreateSession(ctx, SessionConfig{CheckpointEvery: 40, CheckpointKeep: 10})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if out := appendInterleaved(t, cl, cp.ID, raw, 8); out != "accept" {
		t.Fatalf("final audit outcome %q", out)
	}

	list, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var info *SessionInfo
	for i := range list {
		if list[i].ID == cp.ID {
			info = &list[i]
		}
	}
	if info == nil {
		t.Fatalf("session %s missing from listing", cp.ID)
	}
	if info.Checkpoints == 0 || info.CertBytes == 0 {
		t.Fatalf("no checkpoints recorded: %+v", info)
	}
	if info.Txns != 400 {
		t.Fatalf("lifetime txns %d, want 400", info.Txns)
	}
	if info.LiveTxns >= info.Txns || info.LiveOps >= info.Ops {
		t.Fatalf("live window not compacted: %+v", info)
	}
	if info.Ops <= int64(400) {
		t.Fatalf("lifetime ops %d should exceed the live quota", info.Ops)
	}
}

// TestServerDefaultCheckpointPolicy: sessions that set no policy inherit
// the server-wide one, the audit document carries the certificate
// summary, and /metrics exposes the checkpoint counters and gauges.
func TestServerDefaultCheckpointPolicy(t *testing.T) {
	_, cl := start(t, Config{CheckpointEvery: 50})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	raw := encode(t, genHistory(t, 300, 22))
	if out := appendInterleaved(t, cl, info.ID, raw, 6); out != "accept" {
		t.Fatalf("final audit outcome %q", out)
	}

	// A fresh audit of the compacted session reports the certificate.
	doc, err := cl.Audit(ctx, info.ID)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if doc.Outcome != "accept" {
		t.Fatalf("outcome %q", doc.Outcome)
	}
	if doc.Checkpoint == nil || doc.Checkpoint.Count == 0 || doc.Checkpoint.FencedTxns == 0 {
		t.Fatalf("report document lost the certificate: %+v", doc.Checkpoint)
	}
	if doc.Checkpoint.TxnIDBase != int64(doc.Checkpoint.FencedTxns) {
		t.Fatalf("TxnIDBase %d != fenced %d", doc.Checkpoint.TxnIDBase, doc.Checkpoint.FencedTxns)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["viperd_checkpoints_total"] < 1 || m["viperd_compacted_txns_total"] < 1 {
		t.Fatalf("checkpoint counters not accumulated: cp=%d compacted=%d",
			m["viperd_checkpoints_total"], m["viperd_compacted_txns_total"])
	}
	if m["viperd_live_txns"] >= 300 || m["viperd_live_txns"] < 1 {
		t.Fatalf("live-txns gauge %d not bounded by compaction", m["viperd_live_txns"])
	}
	if m["viperd_cert_bytes"] < 1 || m["viperd_live_ops"] < 1 || m["viperd_session_ops_total"] <= m["viperd_live_ops"] {
		t.Fatalf("memory gauges inconsistent: cert=%d live_ops=%d lifetime_ops=%d",
			m["viperd_cert_bytes"], m["viperd_live_ops"], m["viperd_session_ops_total"])
	}

	// Per-session config overrides the server default: a session opting
	// into an effectively-unbounded policy never checkpoints.
	unb, err := cl.CreateSession(ctx, SessionConfig{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if out := appendInterleaved(t, cl, unb.ID, encode(t, genHistory(t, 80, 23)), 2); out != "accept" {
		t.Fatalf("final audit outcome %q", out)
	}
	list, _ := cl.Sessions(ctx)
	for _, si := range list {
		if si.ID == unb.ID && si.Checkpoints != 0 {
			t.Fatalf("override ignored, session checkpointed: %+v", si)
		}
	}
}

// auditChunks streams h into session id in chunks of n transactions, the
// last one completing the stream, audits after each chunk, and returns
// the audits' report documents.
func auditChunks(t *testing.T, cl *Client, id string, h *history.History, n int) []*obs.ReportDoc {
	t.Helper()
	ctx := context.Background()
	// One header line, then one line per transaction.
	lines := bytes.SplitAfter(encode(t, h), []byte("\n"))
	header, txns := lines[0], lines[1:h.Len()+1]
	var docs []*obs.ReportDoc
	for lo := 0; lo < len(txns); lo += n {
		hi := min(lo+n, len(txns))
		var chunk []byte
		if lo == 0 {
			chunk = append(chunk, header...)
		}
		chunk = append(chunk, bytes.Join(txns[lo:hi], nil)...)
		if _, err := cl.Append(ctx, id, bytes.NewReader(chunk), hi == len(txns)); err != nil {
			t.Fatalf("append [%d:%d): %v", lo, hi, err)
		}
		doc, err := cl.Audit(ctx, id)
		if err != nil {
			t.Fatalf("audit @%d: %v", hi, err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// workMetrics are the /metrics counters that add each audit report's
// resolution and timestamp work.
var workMetrics = []string{
	"viperd_resolved_constraints_total",
	"viperd_forced_edges_total",
	"viperd_ts_decided_total",
	"viperd_ts_residual_total",
}

// reportWork returns a report document's counters behind workMetrics, in
// that order.
func reportWork(doc *obs.ReportDoc) [4]int64 {
	g := doc.Graph
	return [4]int64{int64(g.ResolvedConstraints), int64(g.ForcedEdges), int64(g.TSDecided), int64(g.TSResidual)}
}

// TestMetricsSumAuditReports: each audit's report counts its own
// resolution and timestamp work, checkpoints included, and /metrics adds
// each report's counts. Over a read-modify-write stream audited every 100
// transactions and checkpointed every 500, each counter's total equals
// the sum of that field over the audits' report documents.
func TestMetricsSumAuditReports(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{CheckpointEvery: 500, CheckpointKeep: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var sum [4]int64
	for _, doc := range auditChunks(t, cl, info.ID, histgen.SI(histgen.Spec{Txns: 1200, Keys: 40, Seed: 3}), 100) {
		if doc.Outcome != "accept" {
			t.Fatalf("audit: outcome %q", doc.Outcome)
		}
		for i, v := range reportWork(doc) {
			sum[i] += v
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["viperd_checkpoints_total"] < 1 || sum[0] == 0 || sum[1] == 0 || sum[2] == 0 {
		t.Fatalf("stream exercised too little: %d checkpoints, %d resolved, %d forced, %d ts-decided",
			m["viperd_checkpoints_total"], sum[0], sum[1], sum[2])
	}
	for i, name := range workMetrics {
		if m[name] != sum[i] {
			t.Errorf("%s = %d, the audits' report documents sum to %d", name, m[name], sum[i])
		}
	}
}

// TestMetricsCountCachedRejectOnce: a rejected session returns its cached
// report on every later audit, and no work runs for it, so re-auditing
// the session leaves the /metrics work counters where the rejecting
// audit put them.
func TestMetricsCountCachedRejectOnce(t *testing.T) {
	_, cl := start(t, Config{})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, SessionConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	h := histgen.SI(histgen.Spec{Txns: 600, Keys: 30, Seed: 1})
	anomaly.Inject(h, anomaly.GSIb)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	docs := auditChunks(t, cl, info.ID, h, 200)
	last := docs[len(docs)-1]
	if last.Outcome != "reject" || reportWork(last) == [4]int64{} {
		t.Fatalf("the anomaly's audit: outcome %q, work %v; want a reject that did some work", last.Outcome, reportWork(last))
	}
	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for i := 1; i <= 2; i++ {
		doc, err := cl.Audit(ctx, info.ID)
		if err != nil || doc.Outcome != "reject" {
			t.Fatalf("re-audit %d: outcome %v, err %v", i, doc.Outcome, err)
		}
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, name := range workMetrics {
		if after[name] != before[name] {
			t.Errorf("%s moved from %d to %d over two re-audits of a rejected session", name, before[name], after[name])
		}
	}
}
