package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/oracle"
	"viper/internal/server"
	"viper/internal/workload"
)

// ---- in-process fleet helpers ----

// fastCfg makes membership converge in tens of milliseconds so the
// lifecycle tests can observe demotion without multi-second sleeps.
// MinShardOps is disabled so shard counts stay deterministic per worker
// count even for the small histories these tests use.
func fastCfg(name string) Config {
	return Config{
		NodeName:          name,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   2,
		MinShardOps:       -1,
	}
}

// testNode is one fleet member running on a real loopback listener.
type testNode struct {
	srv  *server.Server
	url  string
	stop func() // idempotent: cluster role first, then server drain
}

func serveNode(t *testing.T, srv *server.Server, h http.Handler, closeRole func()) *testNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWith(l, h)
	n := &testNode{srv: srv, url: "http://" + l.Addr().String()}
	stopped := false
	n.stop = func() {
		if stopped {
			return
		}
		stopped = true
		closeRole()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(n.stop)
	return n
}

func startCoordinator(t *testing.T) (*Coordinator, *testNode) {
	t.Helper()
	srv := server.New(server.Config{Role: "coordinator", IdleTTL: -1})
	coord, err := NewCoordinator(srv, fastCfg("coord"))
	if err != nil {
		t.Fatal(err)
	}
	return coord, serveNode(t, srv, coord.Handler(srv.Handler()), coord.Close)
}

func startWorker(t *testing.T, name, coordURL string) (*Worker, *testNode) {
	t.Helper()
	return startWorkerWrapped(t, name, coordURL, func(h http.Handler) http.Handler { return h })
}

// startWorkerWrapped starts a worker whose HTTP surface is wrap(its
// handler), so a test can make one fleet member misbehave.
func startWorkerWrapped(t *testing.T, name, coordURL string, wrap func(http.Handler) http.Handler) (*Worker, *testNode) {
	t.Helper()
	srv := server.New(server.Config{Role: "worker", IdleTTL: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(name)
	cfg.AdvertiseURL = "http://" + l.Addr().String()
	wk, err := NewWorker(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWith(l, wrap(wk.Handler(srv.Handler())))
	n := &testNode{srv: srv, url: cfg.AdvertiseURL}
	stopped := false
	n.stop = func() {
		if stopped {
			return
		}
		stopped = true
		wk.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	t.Cleanup(n.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := wk.Join(ctx, coordURL); err != nil {
		t.Fatal(err)
	}
	return wk, n
}

func encode(t *testing.T, h *history.History) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := histio.Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localDoc is the single-node baseline every distributed verdict is
// compared against.
func localDoc(h *history.History, opts core.Options) *core.Report {
	return core.CheckHistory(h, opts)
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sameGraph fails the test unless the distributed check's outcome and
// polygraph counts are the single-node ones.
func sameGraph(t *testing.T, label string, doc *obs.ReportDoc, want *core.Report) {
	t.Helper()
	if doc.Outcome != want.Outcome.String() {
		t.Fatalf("%s: cluster outcome %q, single-node %q", label, doc.Outcome, want.Outcome)
	}
	if doc.Graph.Nodes != want.Nodes || doc.Graph.KnownEdges != want.KnownEdges || doc.Graph.Constraints != want.Constraints {
		t.Fatalf("%s: cluster polygraph (n=%d e=%d c=%d) differs from single-node (n=%d e=%d c=%d)", label,
			doc.Graph.Nodes, doc.Graph.KnownEdges, doc.Graph.Constraints,
			want.Nodes, want.KnownEdges, want.Constraints)
	}
}

// ---- tests ----

// TestClusterCheckParity: a 3-node fleet checking one history through
// POST /cluster/check must produce the verdict a single-node
// CheckHistory produces, with the work attributed to remote shards.
func TestClusterCheckParity(t *testing.T) {
	coord, cn := startCoordinator(t)
	startWorker(t, "w1", cn.url)
	startWorker(t, "w2", cn.url)
	if got := len(coord.healthyMembers()); got != 2 {
		t.Fatalf("coordinator sees %d healthy members, want 2", got)
	}

	h := generated(t, workload.NewBlindWRW(), 1500, 23)
	stream := encode(t, h)
	want := localDoc(h, core.Options{Level: core.AdyaSI})

	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, err := cl.ClusterCheck(ctx, bytes.NewReader(stream), server.SessionConfig{Level: "si"})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "parity", doc, want)

	if doc.Cluster == nil {
		t.Fatal("report has no cluster section")
	}
	if doc.Cluster.Coordinator != "coord" || doc.Cluster.Workers != 2 {
		t.Fatalf("cluster section %+v: want coordinator=coord workers=2", doc.Cluster)
	}
	if doc.Cluster.LocalFallbacks != 0 {
		t.Fatalf("healthy fleet fell back locally %d times", doc.Cluster.LocalFallbacks)
	}
	keys := 0
	for _, sh := range doc.Cluster.Shards {
		if sh.Local || (sh.Node != "w1" && sh.Node != "w2") {
			t.Fatalf("shard %+v not recorded on a worker", sh)
		}
		keys += sh.Keys
	}
	if keys != len(h.Keys()) {
		t.Fatalf("shards cover %d keys, history has %d", keys, len(h.Keys()))
	}
	if len(doc.Cluster.Shards) != 2 {
		t.Fatalf("got %d shards for 2 workers", len(doc.Cluster.Shards))
	}
	if doc.Cluster.WireBytesOut == 0 || doc.Cluster.WireBytesIn == 0 {
		t.Fatalf("wire byte accounting empty: out=%d in=%d", doc.Cluster.WireBytesOut, doc.Cluster.WireBytesIn)
	}
	for _, sh := range doc.Cluster.Shards {
		if sh.WireBytesOut == 0 || sh.WireBytesIn == 0 {
			t.Fatalf("shard %+v missing wire accounting", sh)
		}
	}
}

// TestClusterCheckNoWorkers: a coordinator with no workers records the
// whole history itself as one local shard. That is not a fallback, since
// no dispatch failed. A polynomial level builds no polygraph, so its
// report has no cluster section at all.
func TestClusterCheckNoWorkers(t *testing.T) {
	_, cn := startCoordinator(t)
	h := generated(t, workload.NewBlindWRW(), 600, 37)
	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	doc, err := cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "si"})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "no workers", doc, localDoc(h, core.Options{Level: core.AdyaSI}))
	ci := doc.Cluster
	if ci == nil || ci.Workers != 0 || ci.LocalFallbacks != 0 || len(ci.Shards) != 1 {
		t.Fatalf("cluster section %+v: want 0 workers, 0 fallbacks, 1 shard", ci)
	}
	if sh := ci.Shards[0]; !sh.Local || sh.Node != "coord" || sh.Keys != len(h.Keys()) || sh.Constraints != doc.Graph.Constraints {
		t.Fatalf("shard %+v: want one local shard on coord over all %d keys and %d constraints",
			sh, len(h.Keys()), doc.Graph.Constraints)
	}
	if got := cn.srv.Metrics().Get("viperd_cluster_local_fallbacks_total"); got != 0 {
		t.Fatalf("viperd_cluster_local_fallbacks_total = %d, want 0", got)
	}

	doc, err = cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "causal"})
	if err != nil {
		t.Fatal(err)
	}
	if want := localDoc(h, core.Options{Level: core.Causal}); doc.Outcome != want.Outcome.String() || doc.Cluster != nil {
		t.Fatalf("causal: outcome %q cluster %+v, want %q and no cluster section", doc.Outcome, doc.Cluster, want.Outcome)
	}
}

// TestClusterCheckRejectsUnknownParameter: a query parameter outside the
// checking knobs, such as a retired option or a typo, is a 400 that names
// it, never a check run with defaults. Every parameter the client sends
// is accepted.
func TestClusterCheckRejectsUnknownParameter(t *testing.T) {
	_, cn := startCoordinator(t)
	h := generated(t, workload.NewBlindWRW(), 200, 41)
	stream := encode(t, h)
	for _, param := range []string{"solver_seed", "disable_prunning"} {
		resp, err := http.Post(cn.url+"/cluster/check?level=si&"+param+"=1", "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), param) {
			t.Fatalf("%s: HTTP %d %s, want a 400 naming it", param, resp.StatusCode, body)
		}
	}

	cfg := server.SessionConfig{
		Level: "si", ClockDriftNS: 1, Parallelism: 1, InitialK: 8,
		DisablePruning: true, DisableResolve: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doc, err := server.NewClient(cn.url).ClusterCheck(ctx, bytes.NewReader(stream), cfg)
	if err != nil {
		t.Fatalf("every client parameter set: %v", err)
	}
	want := localDoc(h, core.Options{
		Level: core.AdyaSI, ClockDrift: 1, Parallelism: 1, InitialK: 8,
		DisablePruning: true, DisableResolve: true,
	})
	sameGraph(t, "every parameter", doc, want)
}

// TestClusterCheckRejectsNegativeKnobs: a negative parallelism,
// initial_k or clock_drift_ns is a 400 that names the parameter, and
// zero still checks with the default.
func TestClusterCheckRejectsNegativeKnobs(t *testing.T) {
	_, cn := startCoordinator(t)
	stream := encode(t, generated(t, workload.NewBlindWRW(), 100, 43))
	for _, param := range []string{"parallelism", "initial_k", "clock_drift_ns"} {
		for _, v := range []string{"-1", "0"} {
			resp, err := http.Post(cn.url+"/cluster/check?level=si&"+param+"="+v, "application/octet-stream", bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if v == "-1" && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), param)) {
				t.Fatalf("%s=-1: HTTP %d %s, want a 400 naming it", param, resp.StatusCode, body)
			}
			if v == "0" && resp.StatusCode != http.StatusOK {
				t.Fatalf("%s=0: HTTP %d %s", param, resp.StatusCode, body)
			}
		}
	}
}

// TestClusterDegradedDispatch: a worker that refuses shard jobs (415, as
// a build without the binary codec would), answers with a digest in
// another format, or answers with a digest naming a node outside the
// history costs no verdict. Its shard moves to the next worker, or,
// with no other worker, is recorded on the coordinator, and only the
// latter counts as a local fallback.
func TestClusterDegradedDispatch(t *testing.T) {
	misbehave := []struct {
		name string
		bad  http.HandlerFunc
	}{
		{"refuse", func(w http.ResponseWriter, _ *http.Request) {
			server.WriteError(w, http.StatusUnsupportedMediaType, errors.New("unsupported shard job"))
		}},
		{"json-digest", func(w http.ResponseWriter, _ *http.Request) {
			server.WriteJSON(w, http.StatusOK, map[string]any{"node": "bad", "records": []any{}})
		}},
		{"stray-node-digest", func(w http.ResponseWriter, r *http.Request) {
			opts, slice, _, err := decodeShardJob(bufio.NewReader(r.Body))
			if err != nil {
				server.WriteError(w, http.StatusBadRequest, err)
				return
			}
			recs := core.BuildShardRecords(slice, opts, slice.Keys())
			recs[len(recs)-1] = &core.KeyRecord{WR: []core.Edge{{From: 1, To: 1 << 20}}}
			w.Header().Set("Content-Type", digestContentTypeV1)
			w.Write(encodeDigest("bad", recs))
		}},
	}
	h := generated(t, workload.NewBlindWRW(), 1200, 41)
	want := localDoc(h, core.Options{Level: core.AdyaSI})
	for _, mb := range misbehave {
		wrap := func(next http.Handler) http.Handler {
			mux := http.NewServeMux()
			mux.Handle("POST /cluster/shard", mb.bad)
			mux.Handle("/", next)
			return mux
		}
		for _, healthy := range []bool{true, false} {
			label := fmt.Sprintf("%s/healthy=%v", mb.name, healthy)
			t.Run(label, func(t *testing.T) {
				coord, cn := startCoordinator(t)
				members := 1
				if healthy {
					startWorker(t, "w1", cn.url)
					members++
				}
				startWorkerWrapped(t, "w2", cn.url, wrap)
				if got := len(coord.healthyMembers()); got != members {
					t.Fatalf("coordinator sees %d healthy members, want %d", got, members)
				}

				cl := server.NewClient(cn.url)
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				doc, err := cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "si"})
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, label, doc, want)
				// One shard per worker, and shard i goes to worker i first, so
				// w2 got a shard to mishandle.
				if len(doc.Cluster.Shards) != members {
					t.Fatalf("%d shards for %d workers", len(doc.Cluster.Shards), members)
				}

				local := 0
				for _, sh := range doc.Cluster.Shards {
					switch {
					case sh.Local && sh.Node == "coord":
						local++
					case sh.Local || sh.Node != "w1":
						t.Fatalf("shard %+v recorded on neither w1 nor the coordinator", sh)
					}
				}
				wantLocal := 0
				if !healthy {
					wantLocal = len(doc.Cluster.Shards)
				}
				if local != wantLocal || doc.Cluster.LocalFallbacks != wantLocal {
					t.Fatalf("%d local shards, %d fallbacks reported; want %d of each", local, doc.Cluster.LocalFallbacks, wantLocal)
				}
				if got := cn.srv.Metrics().Get("viperd_cluster_local_fallbacks_total"); got != int64(wantLocal) {
					t.Fatalf("viperd_cluster_local_fallbacks_total = %d, want %d", got, wantLocal)
				}
			})
		}
	}
}

// TestWorkerRefusesNonBinaryJob: a shard job without the binary codec's
// Content-Type, here a JSON-era body (a header line, then a histio
// stream), gets 415 and the daemon's JSON error body.
func TestWorkerRefusesNonBinaryJob(t *testing.T) {
	_, cn := startCoordinator(t)
	_, wn := startWorker(t, "w1", cn.url)
	h := histgen.SI(histgen.Spec{Txns: 40, Keys: 4, Seed: 5})
	body := append([]byte(`{"level":"adya-si","keys":4}`+"\n"), encode(t, h)...)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, ct := range []string{"application/octet-stream", "application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, wn.url+"/cluster/shard", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ae := apiErrorFrom(resp)
		resp.Body.Close()
		if ae.Status != http.StatusUnsupportedMediaType || !strings.Contains(ae.Message, shardContentTypeV1) {
			t.Fatalf("Content-Type %q: got %d %q, want 415 naming %s", ct, ae.Status, ae.Message, shardContentTypeV1)
		}
	}
	if got := wn.srv.Metrics().Get("viperd_cluster_shards_recorded_total"); got != 0 {
		t.Fatalf("refused jobs recorded %d shards", got)
	}
}

// TestClusterRetryAfterHTTPDate: shard dispatch reads a 429's
// Retry-After in either RFC 9110 form. An HTTP-date 3 s ahead (whole
// seconds, so at least 2 s from now) holds the retry back past a 200 ms
// deadline, and the refusal surfaces with that backoff.
func TestClusterRetryAfterHTTPDate(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat))
		server.WriteError(w, http.StatusTooManyRequests, errors.New("saturated"))
	}))
	defer ts.Close()
	h := wireHistory(40, 5, 1)
	opts := core.Options{Level: core.AdyaSI}
	c := &Coordinator{httpc: ts.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := c.sendShard(ctx, member{name: "w", url: ts.URL}, h, keyRange{lo: 0, hi: len(h.Keys())}, opts, core.NewShardMerger(h, opts))
	ae, ok := err.(*server.APIError)
	if !ok || ae.Status != http.StatusTooManyRequests || ae.RetryAfter < 2*time.Second {
		t.Fatalf("dispatch refused with an HTTP-date Retry-After returned %v (%+v), want a 429 asking for ≥ 2s", err, ae)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("worker saw %d dispatches before the asked-for backoff ended, want 1", n)
	}
}

// TestClusterLifecycle walks the whole story: sessions placed across the
// fleet through the coordinator proxy, a node dying mid-stream, the
// coordinator demoting it from health probes, the session surfacing a
// clear 502, and the recreated session finishing on the survivor with
// the single-node verdict.
func TestClusterLifecycle(t *testing.T) {
	coord, cn := startCoordinator(t)
	_, w1 := startWorker(t, "w1", cn.url)
	startWorker(t, "w2", cn.url)

	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	nodes, err := cl.ClusterNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nodes.Coordinator != "coord" || len(nodes.Nodes) != 2 || !nodes.Nodes[0].Healthy || !nodes.Nodes[1].Healthy {
		t.Fatalf("unexpected /cluster/nodes: %+v", nodes)
	}

	// Place sessions until one lands on w1 — the ring decides, so walk
	// names until it picks the node we intend to kill.
	var victim server.SessionInfo
	for i := 0; i < 64; i++ {
		info, err := cl.CreateSession(ctx, server.SessionConfig{Name: fmt.Sprintf("doomed-%d", i), Level: "si"})
		if err != nil {
			t.Fatal(err)
		}
		coord.mu.Lock()
		node := coord.affinity[info.ID]
		coord.mu.Unlock()
		if node == "w1" {
			victim = info
			break
		}
		if err := cl.DeleteSession(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if victim.ID == "" {
		t.Fatal("64 session placements never landed on w1")
	}

	h := histgen.SI(histgen.Spec{Txns: 400, Keys: 7, MaxConcurrency: 5, AbortEvery: 11, Seed: 3})
	stream := encode(t, h)
	half := bytes.IndexByte(stream[len(stream)/2:], '\n') + len(stream)/2 + 1

	if _, err := cl.Append(ctx, victim.ID, bytes.NewReader(stream[:half]), false); err != nil {
		t.Fatalf("first chunk: %v", err)
	}

	// The node dies mid-stream. The coordinator's readiness probes demote
	// it after HeartbeatMisses consecutive failures.
	w1.stop()
	waitFor(t, 5*time.Second, "w1 demotion", func() bool {
		nodes, err := cl.ClusterNodes(ctx)
		if err != nil {
			return false
		}
		for _, n := range nodes.Nodes {
			if n.Name == "w1" {
				return !n.Healthy
			}
		}
		return false
	})

	_, err = cl.Append(ctx, victim.ID, bytes.NewReader(stream[half:]), true)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("append to dead node's session: got %v, want a 502", err)
	}
	if !strings.Contains(apiErr.Message, "recreate") {
		t.Fatalf("502 message %q does not tell the client to recreate", apiErr.Message)
	}

	// Recreate: with w1 demoted the ring only holds w2, so the new
	// session must land there. Replay from the start and audit.
	again, err := cl.CreateSession(ctx, server.SessionConfig{Name: "retry", Level: "si"})
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	placed := coord.affinity[again.ID]
	coord.mu.Unlock()
	if placed != "w2" {
		t.Fatalf("recreated session placed on %q, want the survivor w2", placed)
	}
	if _, err := cl.Append(ctx, again.ID, bytes.NewReader(stream), true); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Audit(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := localDoc(h, core.Options{Level: core.AdyaSI})
	if doc.Outcome != want.Outcome.String() {
		t.Fatalf("audit after failover: outcome %q, single-node %q", doc.Outcome, want.Outcome)
	}

	// A distributed check keeps working on the shrunken fleet.
	cdoc, err := cl.ClusterCheck(ctx, bytes.NewReader(stream), server.SessionConfig{Level: "si"})
	if err != nil {
		t.Fatal(err)
	}
	if cdoc.Outcome != want.Outcome.String() {
		t.Fatalf("cluster check after failover: outcome %q, want %q", cdoc.Outcome, want.Outcome)
	}
	if cdoc.Cluster == nil || cdoc.Cluster.Workers != 1 {
		t.Fatalf("cluster section after failover: %+v, want 1 worker", cdoc.Cluster)
	}
	for _, sh := range cdoc.Cluster.Shards {
		if sh.Node != "w2" || sh.Local {
			t.Fatalf("post-failover shard %+v not on the survivor", sh)
		}
	}
}

// TestClusterSessionListMerges: GET /v1/sessions on the coordinator
// aggregates local and worker-resident sessions.
func TestClusterSessionListMerges(t *testing.T) {
	_, cn := startCoordinator(t)
	startWorker(t, "w1", cn.url)
	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		info, err := cl.CreateSession(ctx, server.SessionConfig{Name: fmt.Sprintf("merge-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[info.ID] = true
	}
	list, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range list {
		delete(ids, info.ID)
	}
	if len(ids) != 0 {
		t.Fatalf("aggregated session list is missing %v", ids)
	}
}

// TestClusterDifferential runs the anomaly corpus and an
// observation-fuzz corpus through a live 3-node fleet and demands
// verdict and violation-class equality with single-node checking.
func TestClusterDifferential(t *testing.T) {
	_, cn := startCoordinator(t)
	startWorker(t, "w1", cn.url)
	startWorker(t, "w2", cn.url)
	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	check := func(label string, h *history.History) {
		t.Helper()
		rep := localDoc(h, core.Options{Level: core.AdyaSI})
		want := core.BuildReportDoc("viperd", "", h, 0, rep, nil, core.Options{Level: core.AdyaSI}, nil)
		doc, err := cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "si"})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if doc.Outcome != want.Outcome {
			t.Fatalf("%s: cluster outcome %q, single-node %q", label, doc.Outcome, want.Outcome)
		}
		if doc.Anomaly != want.Anomaly {
			t.Fatalf("%s: cluster anomaly %q, single-node %q", label, doc.Anomaly, want.Anomaly)
		}
		if doc.Violation != want.Violation {
			t.Fatalf("%s: cluster violation %q, single-node %q", label, doc.Violation, want.Violation)
		}
	}

	// Every injectable anomaly class, polygraph- and validation-level
	// alike. Validation-level injections are rejected by the stream
	// decoder on the coordinator; the check helper skips those since the
	// single-node path reports them as load errors, and the dedicated
	// assertion below pins the coordinator's verdict shape instead.
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 60, Keys: 4, Seed: 1}), kind)
			doc, err := cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "si"})
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if doc.Outcome != core.Reject.String() || doc.Violation == "" {
				t.Fatalf("%s: validation-level anomaly got outcome %q violation %q", kind, doc.Outcome, doc.Violation)
			}
			continue
		}
		for seed := int64(0); seed < 2; seed++ {
			h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 120, Keys: 5, Seed: seed}), kind)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/seed%d", kind, seed), h)
		}
	}

	// Observation fuzz: rewire random reads and compare whatever comes
	// out; tiny cases additionally agree with the exhaustive oracle.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 12; iter++ {
		spec := histgen.Spec{Txns: 40, Keys: 3, MaxConcurrency: 4, Seed: int64(iter)}
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
		check(fmt.Sprintf("fuzz/%d", iter), h)
		if tiny {
			rep := localDoc(h, core.Options{Level: core.AdyaSI})
			want := core.Reject
			if oracle.IsSI(h) {
				want = core.Accept
			}
			if rep.Outcome != want {
				t.Fatalf("fuzz/%d: checker %v, oracle %v", iter, rep.Outcome, want)
			}
		}
	}
}

// mutateObservation rewires one random read to observe a different
// committed write of the same key (the classic corrupted execution);
// same fuzz as core's resolution differential, here driving the fleet.
func mutateObservation(h *history.History, rng *rand.Rand) bool {
	writes := make(map[history.Key][]history.WriteID)
	for _, txn := range h.Txns[1:] {
		if txn.Status != history.StatusCommitted {
			continue
		}
		for _, op := range txn.Ops {
			if op.Kind == history.OpWrite || op.Kind == history.OpInsert {
				writes[op.Key] = append(writes[op.Key], op.WriteID)
			}
		}
	}
	for attempt := 0; attempt < 64; attempt++ {
		txn := h.Txns[1:][rng.Intn(len(h.Txns)-1)]
		if len(txn.Ops) == 0 {
			continue
		}
		op := &txn.Ops[rng.Intn(len(txn.Ops))]
		if op.Kind != history.OpRead || len(writes[op.Key]) == 0 {
			continue
		}
		op.Observed = writes[op.Key][rng.Intn(len(writes[op.Key]))]
		return true
	}
	return false
}

// TestClusterShutdownNoLeaks: a full fleet lifecycle — join, heartbeat,
// distributed check, shutdown — leaves no goroutines behind.
func TestClusterShutdownNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	coord, cn := startCoordinator(t)
	_, w1 := startWorker(t, "w1", cn.url)
	_, w2 := startWorker(t, "w2", cn.url)
	_ = coord

	cl := server.NewClient(cn.url)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h := histgen.SI(histgen.Spec{Txns: 120, Keys: 5, Seed: 2})
	if _, err := cl.ClusterCheck(ctx, bytes.NewReader(encode(t, h)), server.SessionConfig{Level: "si"}); err != nil {
		t.Fatal(err)
	}

	w1.stop()
	w2.stop()
	cn.stop()
	if tr, ok := cl.HTTP.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	} else {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}

	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC() // nudge finalizer-held conns
		return runtime.NumGoroutine() <= before+2
	})
}
