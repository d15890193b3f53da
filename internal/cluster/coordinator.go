package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/server"
	"viper/internal/version"
)

// member is one worker as the coordinator tracks it.
type member struct {
	name, url, version string
	healthy            bool
	misses             int
	sessions           int
	lastSeen           time.Time
}

// Coordinator runs the fleet: membership and health, session routing
// (proxy.go), and distributed single-history checks. It wraps an
// ordinary viperd server, which keeps serving local sessions — a
// coordinator with no workers behaves exactly like a standalone
// daemon.
type Coordinator struct {
	srv   *server.Server
	cfg   Config
	httpc *http.Client

	mu       sync.Mutex
	members  map[string]*member
	ring     *Ring
	affinity map[string]string // session id -> member name
	placeSeq uint64            // placement tiebreaker for unnamed sessions

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewCoordinator wraps srv with the coordinator role and starts the
// heartbeat loop. Call Close to stop it (before srv.Shutdown).
func NewCoordinator(srv *server.Server, cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		srv:      srv,
		cfg:      cfg,
		httpc:    &http.Client{},
		members:  make(map[string]*member),
		ring:     NewRing(cfg.VNodes),
		affinity: make(map[string]string),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.heartbeatLoop()
	return c, nil
}

// Handler mounts the coordinator's cluster endpoints and the session
// router in front of next (the server's handler).
func (c *Coordinator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", c.handleJoin)
	mux.HandleFunc("GET /cluster/nodes", c.handleNodes)
	mux.HandleFunc("POST /cluster/check", c.handleCheck)
	mux.Handle("/", c.route(next))
	return mux
}

// Close stops the heartbeat loop and drops pooled peer connections.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.httpc.CloseIdleConnections()
}

// ---- membership ----

func (c *Coordinator) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr JoinRequest
	if err := json.NewDecoder(req.Body).Decode(&jr); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding join request: %v", err))
		return
	}
	if !nodeNameRe.MatchString(jr.Name) || jr.Name == c.cfg.NodeName {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid node name %q", jr.Name))
		return
	}
	u, err := url.Parse(jr.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid advertise URL %q", jr.URL))
		return
	}
	if jr.Version != version.Version {
		c.cfg.logf("cluster: node %q runs version %q, coordinator %q", jr.Name, jr.Version, version.Version)
	}

	c.mu.Lock()
	m, known := c.members[jr.Name]
	if !known {
		m = &member{name: jr.Name}
		c.members[jr.Name] = m
	}
	rejoined := !known || !m.healthy || m.url != jr.URL
	m.url = jr.URL
	m.version = jr.Version
	m.healthy = true
	m.misses = 0
	m.lastSeen = time.Now()
	if rejoined {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
	if rejoined {
		c.cfg.logf("cluster: member %q joined at %s", jr.Name, jr.URL)
	}
	c.srv.Metrics().Add("viperd_cluster_joins_total", 1)

	server.WriteJSON(w, http.StatusOK, JoinResponse{
		Coordinator: c.cfg.NodeName,
		Version:     version.Version,
		HeartbeatNS: int64(c.cfg.HeartbeatInterval),
	})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, req *http.Request) {
	now := time.Now()
	c.mu.Lock()
	nodes := make([]server.ClusterNode, 0, len(c.members))
	for _, m := range c.members {
		nodes = append(nodes, server.ClusterNode{
			Name:       m.name,
			URL:        m.url,
			Version:    m.version,
			Healthy:    m.healthy,
			Sessions:   m.sessions,
			LastSeenNS: int64(now.Sub(m.lastSeen)),
		})
	}
	c.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	server.WriteJSON(w, http.StatusOK, server.ClusterNodesResponse{
		Coordinator: c.cfg.NodeName,
		Version:     version.Version,
		Nodes:       nodes,
	})
}

// rebuildRingLocked recomputes the routing ring from the healthy member
// set and refreshes the per-node gauges. Callers hold c.mu.
func (c *Coordinator) rebuildRingLocked() {
	healthy := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.healthy {
			healthy = append(healthy, m.name)
		}
	}
	c.ring.SetNodes(healthy)
	mx := c.srv.Metrics()
	mx.Set("viperd_cluster_nodes", int64(len(c.members)))
	mx.Set("viperd_cluster_nodes_healthy", int64(len(healthy)))
	for _, m := range c.members {
		up := int64(0)
		if m.healthy {
			up = 1
		}
		mx.Set("viperd_cluster_node_up_"+metricName(m.name), up)
		mx.Set("viperd_cluster_node_sessions_"+metricName(m.name), int64(m.sessions))
	}
}

// metricName maps a node name onto the metrics charset.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

func (c *Coordinator) heartbeatLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll heartbeats every member's readiness probe concurrently and
// folds the results into the member set; the ring is rebuilt when any
// member changes health.
func (c *Coordinator) probeAll() {
	type target struct{ name, url string }
	c.mu.Lock()
	targets := make([]target, 0, len(c.members))
	for _, m := range c.members {
		targets = append(targets, target{m.name, m.url})
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		return
	}

	type probe struct {
		name     string
		ok       bool
		sessions int
	}
	results := make([]probe, len(targets))
	var wg sync.WaitGroup
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg target) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, tg.url+"/healthz?probe=ready", nil)
			if err != nil {
				results[i] = probe{name: tg.name}
				return
			}
			resp, err := c.httpc.Do(req)
			if err != nil {
				results[i] = probe{name: tg.name}
				return
			}
			defer resp.Body.Close()
			var h server.Health
			ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Ready
			results[i] = probe{name: tg.name, ok: ok, sessions: h.Sessions}
		}(i, tg)
	}
	wg.Wait()

	now := time.Now()
	changed := false
	c.mu.Lock()
	for _, p := range results {
		m := c.members[p.name]
		if m == nil {
			continue
		}
		if p.ok {
			if !m.healthy {
				changed = true
				c.cfg.logf("cluster: member %q recovered", m.name)
			}
			m.healthy = true
			m.misses = 0
			m.sessions = p.sessions
			m.lastSeen = now
		} else {
			m.misses++
			if m.healthy && m.misses >= c.cfg.HeartbeatMisses {
				m.healthy = false
				changed = true
				c.cfg.logf("cluster: member %q unhealthy after %d missed heartbeats", m.name, m.misses)
			}
		}
	}
	if changed {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
}

// memberLocked returns a copy of the named member, and whether there is
// one. The caller holds c.mu; heartbeats and rejoins update members in
// place, so a pointer read after unlocking would race with them.
func (c *Coordinator) memberLocked(name string) (member, bool) {
	m, ok := c.members[name]
	if !ok {
		return member{}, false
	}
	return *m, true
}

// healthyMembers snapshots the healthy members, sorted by name.
func (c *Coordinator) healthyMembers() []member {
	c.mu.Lock()
	out := make([]member, 0, len(c.members))
	for _, m := range c.members {
		if m.healthy {
			out = append(out, *m)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ---- distributed checking ----

// optionsFromQuery parses the checking knobs /cluster/check accepts —
// the same names SessionConfig uses, as query parameters (the body is
// the history stream). Any other parameter is refused: a typo or a
// retired knob must not run the check with defaults. So is a negative
// parallelism, initial_k or clock_drift_ns, as session creation refuses
// them.
func optionsFromQuery(q url.Values) (core.Options, error) {
	var opts core.Options
	for name := range q {
		switch name {
		case "level", "parallelism", "initial_k", "clock_drift_ns", "disable_pruning", "disable_resolve":
		default:
			return opts, fmt.Errorf("unknown query parameter %q", name)
		}
	}
	if lvl := q.Get("level"); lvl != "" {
		l, ok := core.ParseLevel(lvl)
		if !ok {
			return opts, fmt.Errorf("unknown isolation level %q", lvl)
		}
		opts.Level = l
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"parallelism", &opts.Parallelism},
		{"initial_k", &opts.InitialK},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return opts, fmt.Errorf("bad %s %q", f.name, v)
			}
			*f.dst = n
		}
	}
	if v := q.Get("clock_drift_ns"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad clock_drift_ns %q", v)
		}
		opts.ClockDrift = time.Duration(n)
	}
	opts.DisablePruning = q.Get("disable_pruning") == "1" || q.Get("disable_pruning") == "true"
	opts.DisableResolve = q.Get("disable_resolve") == "1" || q.Get("disable_resolve") == "true"
	return opts, opts.CheckKnobs("parallelism", "initial_k", "clock_drift_ns")
}

// handleCheck is the coordinator's distributed single-history check:
// decode and validate the streamed history, split it by key range
// across the healthy workers, record each shard remotely (each worker
// records its keys through the same session indexer and per-key pass a
// single-node check uses), replay the merged digests into the global
// polygraph, and solve once.
// The verdict — and the whole report document, modulo the cluster
// section — is identical to a single-node check of the same stream.
func (c *Coordinator) handleCheck(w http.ResponseWriter, req *http.Request) {
	release, err := c.srv.AdmitAudit(req.Context())
	if err != nil {
		c.srv.Metrics().Add("viperd_cluster_check_rejects_total", 1)
		admissionStatus(w, err)
		return
	}
	defer release()

	opts, err := optionsFromQuery(req.URL.Query())
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}

	parseStart := time.Now()
	h, err := histio.Decode(req.Body)
	parse := time.Since(parseStart)
	if err != nil {
		var ve *history.ValidationError
		if errors.As(err, &ve) {
			// An invalid history is a verdict (reject), not a request error —
			// the same document a single-node check would emit.
			c.srv.Metrics().Add("viperd_cluster_checks_total", 1)
			server.WriteJSON(w, http.StatusOK, core.BuildReportDoc("viperd", "", nil, parse, nil, err, opts, nil))
			return
		}
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}

	info, merger := c.disperse(req.Context(), h, opts)
	var rep *core.Report
	if merger == nil {
		// Polynomial levels never build a polygraph; nothing was dispersed.
		rep = core.CheckHistoryContext(req.Context(), h, opts)
	} else {
		rep, err = core.CheckMergedContext(req.Context(), merger)
	}
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, fmt.Errorf("shard merge: %v", err))
		return
	}
	if info != nil && merger != nil {
		info.ReplayNS = merger.ReplayNS()
	}

	doc := core.BuildReportDoc("viperd", "", h, parse, rep, nil, opts, nil)
	doc.Cluster = info

	mx := c.srv.Metrics()
	mx.Add("viperd_cluster_checks_total", 1)
	mx.Add("viperd_cluster_check_"+rep.Outcome.String()+"_total", 1)
	if info != nil {
		mx.Add("viperd_cluster_shards_total", int64(len(info.Shards)))
		mx.Add("viperd_cluster_cross_shard_edges_total", int64(info.CrossShardEdges))
		mx.Add("viperd_cluster_cross_shard_constraints_total", int64(info.CrossShardConstraints))
		mx.Add("viperd_cluster_local_fallbacks_total", int64(info.LocalFallbacks))
		mx.Add("viperd_cluster_wire_bytes_total", info.WireBytesOut+info.WireBytesIn)
		mx.Add("viperd_cluster_wire_bytes_out_total", info.WireBytesOut)
		mx.Add("viperd_cluster_wire_bytes_in_total", info.WireBytesIn)
	}

	if rep.Outcome == core.Timeout && req.Context().Err() != nil {
		server.WriteJSON(w, http.StatusGatewayTimeout, doc)
		return
	}
	server.WriteJSON(w, http.StatusOK, doc)
}

// shardOutcome is one shard's dispatch result: where it was recorded
// and what the dispatch cost on the wire.
type shardOutcome struct {
	node               string
	local              bool
	bytesOut, bytesIn  int64
	encodeNS, decodeNS int64
}

// disperse partitions h by key range and records each shard (remotely
// when healthy workers exist, locally otherwise), filing every record in
// the returned ShardMerger as it arrives; CheckMergedContext replays the
// table once it is complete. Polynomial levels never build a polygraph,
// so there is nothing to distribute (both returns are nil). Dispatch
// failures degrade, never fail: a shard whose every candidate node
// refused is recorded locally, preserving the verdict at the cost of
// coordinator CPU.
func (c *Coordinator) disperse(ctx context.Context, h *history.History, opts core.Options) (*obs.ClusterInfo, *core.ShardMerger) {
	if opts.Level.Polynomial() {
		return nil, nil
	}
	start := time.Now()
	workers := c.healthyMembers()
	info := &obs.ClusterInfo{Coordinator: c.cfg.NodeName, Workers: len(workers)}
	merger := core.NewShardMerger(h, opts)

	// With no healthy worker the whole key space is one range, and
	// recordShard, having no one to try, records it locally.
	ranges := []keyRange{{lo: 0, hi: len(h.Keys())}}
	if len(workers) > 0 {
		ranges = partitionKeys(h, len(workers), c.cfg.MinShardOps)
	}
	type stat struct {
		si                    obs.ClusterShard
		crossEdges, crossCons int
	}
	outcomes := make([]shardOutcome, len(ranges))
	stats := make([]stat, len(ranges))
	var wg sync.WaitGroup
	for i, kr := range ranges {
		wg.Add(1)
		go func(i int, kr keyRange) {
			defer wg.Done()
			out := c.recordShard(ctx, workers, i, kr, h, opts, merger)
			outcomes[i] = out
			// The shard's records are all in the merger now; summarize them
			// here so the stats pass overlaps other shards' dispatches.
			si, crossEdges, crossCons := shardInfo(h, opts, kr, merger.Records(kr.lo, kr.hi), out.node, out.local)
			si.WireBytesOut, si.WireBytesIn = out.bytesOut, out.bytesIn
			si.EncodeNS, si.DecodeNS = out.encodeNS, out.decodeNS
			stats[i] = stat{si: si, crossEdges: crossEdges, crossCons: crossCons}
		}(i, kr)
	}
	wg.Wait()

	for i := range ranges {
		info.Shards = append(info.Shards, stats[i].si)
		info.CrossShardEdges += stats[i].crossEdges
		info.CrossShardConstraints += stats[i].crossCons
		out := &outcomes[i]
		if out.local {
			// A fallback is a local recording after failed dispatches; with
			// no worker there was nothing to fail.
			if len(workers) > 0 {
				info.LocalFallbacks++
			}
			continue
		}
		info.WireBytesOut += out.bytesOut
		info.WireBytesIn += out.bytesIn
		info.EncodeNS += out.encodeNS
		info.DecodeNS += out.decodeNS
	}
	info.MergeNS = int64(time.Since(start))
	return info, merger
}

// recordShard gets one key range's records into the merger: try up to
// ShardRetries distinct workers, then record locally.
func (c *Coordinator) recordShard(ctx context.Context, workers []member, i int, kr keyRange, h *history.History, opts core.Options, merger *core.ShardMerger) shardOutcome {
	tries := c.cfg.ShardRetries
	if tries > len(workers) {
		tries = len(workers)
	}
	for try := 0; try < tries; try++ {
		wk := workers[(i+try)%len(workers)]
		out, err := c.sendShard(ctx, wk, h, kr, opts, merger)
		if err == nil {
			return out
		}
		c.cfg.logf("cluster: shard %d (%d keys) on %q failed: %v", i, kr.size(), wk.name, err)
	}
	// Recording the shard's keys against the full history equals
	// recording them against the slice — the emissions of a key depend
	// only on that key's operations. Records a dead dispatch already
	// streamed into the merger are deduplicated there (Add ignores keys
	// it holds), so a partial remote digest plus a full local pass still
	// merges exactly once per key.
	keys := h.Keys()[kr.lo:kr.hi]
	for j, rec := range core.BuildShardRecords(h, opts, keys) {
		if err := merger.Add(kr.lo+j, rec); err != nil {
			c.cfg.logf("cluster: local record merge: %v", err)
		}
	}
	return shardOutcome{node: c.cfg.NodeName, local: true}
}

// sendShard records one key range on wk under the default retry policy
// (429/503 with backoff): it streams the binary shard job and files the
// streamed digest's records in the merger as they arrive. The job
// encodes straight from the full history into the request body (no
// slice History, no buffered copy), so encode, upload, remote recording,
// download and decode all overlap. A refused job, a digest in any other
// format, or a digest that fails to decode (decodeDigest refuses what
// recording never emits) is an error like a dead worker: the caller
// moves the shard on.
func (c *Coordinator) sendShard(ctx context.Context, wk member, h *history.History, kr keyRange, opts core.Options, merger *core.ShardMerger) (out shardOutcome, err error) {
	err = server.DefaultRetryPolicy().Do(ctx, nil, func() (err error) {
		out, err = c.sendShardOnce(ctx, wk, h, kr, opts, merger)
		return err
	})
	return out, err
}

// sendShardOnce is one dispatch attempt of sendShard.
func (c *Coordinator) sendShardOnce(ctx context.Context, wk member, h *history.History, kr keyRange, opts core.Options, merger *core.ShardMerger) (out shardOutcome, err error) {
	// Named results: the deferred decode-stats collection below must land
	// in the values the caller sees.
	out = shardOutcome{node: wk.name}
	pr, pw := io.Pipe()
	cw := &countingWriter{w: pw}
	encCh := make(chan int64, 1)
	go func() {
		t0 := time.Now()
		err := encodeShardJob(cw, h, kr, opts)
		pw.CloseWithError(err)
		encCh <- int64(time.Since(t0))
	}()
	collectEnc := func() {
		// The transport closes the request body when the round trip
		// ends; closing again is a harmless belt-and-braces unblock for
		// the encoder before we collect its span.
		pr.Close()
		out.encodeNS, out.bytesOut = <-encCh, cw.n
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+"/cluster/shard", pr)
	if err != nil {
		collectEnc()
		return out, err
	}
	req.Header.Set("Content-Type", shardContentTypeV1)
	resp, err := c.httpc.Do(req)
	collectEnc()
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return out, apiErrorFrom(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, digestContentTypeV1) {
		return out, fmt.Errorf("digest Content-Type %q, want %s", ct, digestContentTypeV1)
	}

	decStart := time.Now()
	cr := &countingReader{r: resp.Body}
	defer func() {
		out.decodeNS, out.bytesIn = int64(time.Since(decStart)), cr.n
	}()
	_, err = decodeDigest(bufio.NewReaderSize(cr, 64<<10), h.Keys()[kr.lo:kr.hi], core.NodeCount(h, opts.Level), func(j int, rec *core.KeyRecord) error {
		return merger.Add(kr.lo+j, rec)
	})
	return out, err
}

// shardInfo summarizes one shard's digest for the report's cluster
// section. Per-key recording keeps every emission local to its key's
// shard, so "cross-shard" here counts the coupling the merge must
// reconcile: edges and constraints with an endpoint transaction that
// also operates on other shards — its polygraph node ties this shard's
// emissions to theirs, and a cycle through it spans shards. Genesis is
// considered local everywhere.
func shardInfo(h *history.History, opts core.Options, kr keyRange, recs []*core.KeyRecord, node string, local bool) (si obs.ClusterShard, crossEdges, crossCons int) {
	touches := touchesByRange(h, kr)
	spans := spansByRange(h, kr)
	ser := opts.Level == core.Serializability
	foreign := func(n int32) bool {
		t := n
		if !ser {
			t = n / 2
		}
		return t != 0 && int(t) < len(spans) && spans[t]
	}
	crosses := func(es ...core.Edge) bool {
		for _, e := range es {
			if foreign(e.From) || foreign(e.To) {
				return true
			}
		}
		return false
	}

	si = obs.ClusterShard{Node: node, Keys: kr.size(), Local: local}
	for _, t := range touches {
		if t {
			si.Txns++
		}
	}
	for _, rec := range recs {
		si.KnownEdges += len(rec.WR)
		for _, e := range rec.WR {
			if crosses(e) {
				crossEdges++
			}
		}
		for k := range rec.Ops {
			op := &rec.Ops[k]
			if !op.Cons {
				si.KnownEdges++
				if crosses(op.Edge) {
					crossEdges++
				}
				continue
			}
			si.Constraints++
			if crosses(op.First...) || crosses(op.Second...) {
				crossCons++
			}
		}
	}
	return si, crossEdges, crossCons
}
