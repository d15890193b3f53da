package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"viper/internal/cluster"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/server"
)

// params are what a workload's set-up may depend on: the seed, and the
// smoke switch that shrinks every input so tests finish in seconds.
type params struct {
	seed  int64
	smoke bool
}

// workload is one named input and the public entry point it goes through.
// LEDGER.md records why each was chosen and what it should move.
type workload struct {
	name  string
	setup func(p params) (fixture, error)
}

// fixture is a set-up workload: its input (and servers, if any), ready
// for measured repetitions.
type fixture interface {
	input() *Input
	// run performs one repetition. With a non-nil tracer it also records
	// spans and fills rep.layers.
	run(ctx context.Context, tr *tracer) rep
	close() error
}

// referencer is a fixture whose expected verdict must be computed once,
// untimed, before measuring.
type referencer interface {
	reference(ctx context.Context) error
}

// rep is one repetition's outcome.
type rep struct {
	verdict   time.Duration   // log bytes in memory → verdict on the whole log
	audits    []time.Duration // each verdict request: start → verdict
	txns      int             // transactions the verdicts covered
	attempted int
	failed    int
	err       error // first failure
	layers    map[string]float64
	wall      time.Duration // the whole repetition, set by the caller
}

func (r *rep) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

var workloads = []workload{
	{"ts-accept", func(p params) (fixture, error) {
		return newOffline(p, Spec{Txns: pick(p, 20000, 400), ReadRatio: 0.5}, core.Accept)
	}},
	{"nots-accept", func(p params) (fixture, error) {
		return newOffline(p, Spec{Txns: pick(p, 10000, 300), ReadRatio: 0.5, NoTimestamps: true}, core.Accept)
	}},
	{"rm-reject", func(p params) (fixture, error) {
		return newOffline(p, Spec{Txns: pick(p, 20000, 400), ReadRatio: 0.9, LostUpdate: true}, core.Reject)
	}},
	{"viperd-stream", newStream},
	{"cluster-2w", newCluster},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func pick(p params, full, smoke int) int {
	if p.smoke {
		return smoke
	}
	return full
}

// generate fills in the BlindW constants every workload shares and
// renders the log.
func generate(p params, spec Spec) (*Input, error) {
	spec.Keys, spec.Clients, spec.Seed = 2000, 24, p.seed
	h, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	return Encode(h)
}

// checkBudget bounds one check. A check that needs longer counts as a
// failure, not as a long sample.
const checkBudget = 60 * time.Second

// offline is cmd/viper's path: decode the log with the streaming
// histio.Decoder, validate, and run core.CheckHistory.
type offline struct {
	in   *Input
	want core.Outcome
}

func newOffline(p params, spec Spec, want core.Outcome) (fixture, error) {
	in, err := generate(p, spec)
	if err != nil {
		return nil, err
	}
	return &offline{in: in, want: want}, nil
}

func (o *offline) input() *Input { return o.in }
func (o *offline) close() error  { return nil }

func decodeLog(log []byte) (*history.History, error) {
	d := histio.NewDecoder(bytes.NewReader(log))
	h := history.New()
	for {
		t, err := d.Next()
		if err == io.EOF {
			return h, nil
		}
		if err != nil {
			return nil, err
		}
		h.Append(t)
	}
}

func (o *offline) run(ctx context.Context, tr *tracer) rep {
	r := rep{attempted: 1, txns: o.in.Txns + o.in.Aborted}
	root := tr.start("perfbench.verdict", 0)
	start := time.Now()
	sp := tr.start("histio.Decoder", root)
	h, err := decodeLog(o.in.Log)
	tr.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("decode: %w", err))
		return r
	}
	sp = tr.start("history.Validate", root)
	err = h.Validate()
	tr.end(sp)
	if err != nil {
		r.fail(fmt.Errorf("validate: %w", err))
		return r
	}
	opts := core.Options{Timeout: checkBudget}
	if tr != nil {
		opts.Tracer = obs.NewTracer()
	}
	checkStart := time.Now()
	sp = tr.start("core.CheckHistory", root)
	res := core.CheckHistoryContext(ctx, h, opts)
	tr.end(sp)
	r.audits = []time.Duration{time.Since(checkStart)}
	r.verdict = time.Since(start)
	tr.end(root)
	if res.Outcome != o.want {
		r.fail(fmt.Errorf("verdict %s, want %s", res.Outcome, o.want))
	}
	if tr != nil {
		tr.attach(sp, opts.Tracer.Trace())
		derivePhases(tr, sp, res.Phases)
		self := tr.selfByName(tr.trace)
		// The report document carries every counter the ledger reads.
		// Rendering a known cycle would rebuild the polygraph, so the copy
		// goes without it.
		counted := *res
		counted.KnownCycle = nil
		r.layers = docLayers(core.BuildReportDoc("perfbench", "", h, 0, &counted, nil, opts, nil))
		r.layers["histio.decode_s"] = self["histio.Decoder"].Seconds()
		r.layers["history.validate_s"] = self["history.Validate"].Seconds()
		r.layers["core.other_s"] = self["core.CheckHistory"].Seconds()
		for name, key := range phaseMetrics {
			r.layers[key] = self[name].Seconds()
		}
	}
	return r
}

// phaseMetrics maps the derived phase spans to their ledger metrics.
var phaseMetrics = map[string]string{
	"core.construct": "core.construct_s",
	"core.tsorder":   "core.tsorder_s",
	"core.resolve":   "core.resolve_s",
	"core.encode":    "core.encode_s",
	"sat.solve":      "sat.solve_s",
}

// derivePhases splits a check span into the phases its report counted.
func derivePhases(tr *tracer, id int, ph core.PhaseTimings) {
	tr.derive(id, "core.construct", ph.Construct)
	tr.derive(id, "core.tsorder", ph.TSOrder)
	tr.derive(id, "core.resolve", ph.Resolve)
	tr.derive(id, "core.encode", ph.Encode)
	tr.derive(id, "sat.solve", ph.Solve)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// docLayers reads the counters a report document carries.
func docLayers(doc *obs.ReportDoc) map[string]float64 {
	g, s := doc.Graph, doc.Solver
	l := map[string]float64{
		"core.construct_cpu_s":  ns(doc.Phases.ConstructCPUNS),
		"core.nodes":            float64(g.Nodes),
		"core.known_edges":      float64(g.KnownEdges),
		"core.constraints":      float64(g.Constraints),
		"core.ts_decided":       float64(g.TSDecided),
		"core.ts_residual":      float64(g.TSResidual),
		"core.ts_decided_ratio": ratio(g.TSDecided, g.Constraints),
		"core.resolved":         float64(g.ResolvedConstraints),
		"core.resolved_ratio":   ratio(g.ResolvedConstraints, g.Constraints),
		"core.forced_edges":     float64(g.ForcedEdges),
		"core.retries":          float64(g.Retries),
		"core.edge_vars":        float64(g.EdgeVars),
		"core.pruned":           float64(g.PrunedConstraints),
		"sat.conflicts":         float64(s.Conflicts),
		"sat.decisions":         float64(s.Decisions),
		"sat.propagations":      float64(s.Propagations),
		"acyclic.reorders":      float64(s.Reorders),
	}
	if doc.Final != nil {
		l["core.closure_mb"] = float64(doc.Final.ClosureBytes) / mib
	}
	return l
}

func ns(v int64) float64 { return time.Duration(v).Seconds() }

// docPhases converts a report document's phases back to durations.
func docPhases(p obs.PhaseInfo) core.PhaseTimings {
	return core.PhaseTimings{
		Construct: time.Duration(p.ConstructNS),
		TSOrder:   time.Duration(p.TSOrderNS),
		Resolve:   time.Duration(p.ResolveNS),
		Encode:    time.Duration(p.EncodeNS),
		Solve:     time.Duration(p.SolveNS),
	}
}

// node is one in-process viperd on a loopback listener.
type node struct {
	url       string
	srv       *server.Server
	closeRole func()
	served    chan error
}

func startNode(cfg server.Config, role func(*server.Server, string) (func(http.Handler) http.Handler, func(), error)) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	url := "http://" + l.Addr().String()
	srv := server.New(cfg)
	wrap, closeRole := func(h http.Handler) http.Handler { return h }, func() {}
	if role != nil {
		if wrap, closeRole, err = role(srv, url); err != nil {
			l.Close()
			srv.Shutdown(context.Background())
			return nil, err
		}
	}
	n := &node{url: url, srv: srv, closeRole: closeRole, served: make(chan error, 1)}
	go func() { n.served <- srv.ServeWith(l, wrap(srv.Handler())) }()
	// Shutdown stops the listener only once ServeWith has registered it,
	// so wait for the node to answer before handing it out.
	cl := newClient(url)
	defer closeClient(cl)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		n.closeRole()
		srv.Shutdown(ctx)
		l.Close()
		return nil, fmt.Errorf("node %s: %w", url, err)
	}
	return n, nil
}

// stop shuts the node down and waits for its listener goroutine.
func (n *node) stop() error {
	n.closeRole()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client with its own transport, so closing it
// drops exactly the connections the benchmark opened.
func newClient(url string) *server.Client {
	cl := server.NewClient(url)
	cl.HTTP = &http.Client{Transport: &http.Transport{}}
	return cl
}

func closeClient(cl *server.Client) {
	cl.HTTP.Transport.(*http.Transport).CloseIdleConnections()
}

// stream is one viperd session fed the log chunk by chunk in a closed
// loop: append a chunk, audit, and only then send the next.
type stream struct {
	in     *Input
	chunks [][]byte
	cfg    server.SessionConfig
	srv    *node
	cl     *server.Client
}

// requestBudget bounds one daemon request of the stream.
const requestBudget = 10 * time.Second

func newStream(p params) (fixture, error) {
	in, err := generate(p, Spec{Txns: pick(p, 40000, 1000), ReadRatio: 0.5})
	if err != nil {
		return nil, err
	}
	chunks, err := chunkLog(in.Log, pick(p, 200, 50))
	if err != nil {
		return nil, err
	}
	srv, err := startNode(server.Config{IdleTTL: -1, AuditTimeout: requestBudget}, nil)
	if err != nil {
		return nil, err
	}
	// A checkpoint every 4,000 txns makes about 11 of the 200 audits
	// checkpoint. The slow checkpointing audits then stay well under 10%,
	// so the p90 falls among the ordinary audits, not at the edge of the
	// slow group.
	return &stream{
		in:     in,
		chunks: chunks,
		cfg:    server.SessionConfig{Name: "perfbench", Level: "si", CheckpointEvery: pick(p, 4000, 400), CheckpointKeep: pick(p, 500, 50)},
		srv:    srv,
		cl:     newClient(srv.url),
	}, nil
}

// chunkLog splits a log into pieces of per transaction lines each; the
// header line rides with the first piece.
func chunkLog(log []byte, per int) ([][]byte, error) {
	var chunks [][]byte
	for rest := log; len(rest) > 0; {
		lines := per
		if len(chunks) == 0 {
			lines++
		}
		cut := 0
		for i := 0; i < lines && cut < len(rest); i++ {
			nl := bytes.IndexByte(rest[cut:], '\n')
			if nl < 0 {
				return nil, fmt.Errorf("chunk: log does not end in a newline")
			}
			cut += nl + 1
		}
		chunks = append(chunks, rest[:cut])
		rest = rest[cut:]
	}
	return chunks, nil
}

func (s *stream) input() *Input { return s.in }

func (s *stream) close() error {
	closeClient(s.cl)
	return s.srv.stop()
}

func (s *stream) run(ctx context.Context, tr *tracer) rep {
	r := rep{txns: s.in.Txns + s.in.Aborted}
	root := tr.start("perfbench.stream", 0)
	start := time.Now()
	sp := tr.start("server.Client.CreateSession", root)
	info, err := s.cl.CreateSession(ctx, s.cfg)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		r.attempted++
		r.fail(fmt.Errorf("create session: %w", err))
		return r
	}
	var (
		appended   int
		last       *obs.ReportDoc
		liveMax    int
		closureMax int64
	)
	for i, chunk := range s.chunks {
		r.attempted++
		c0 := time.Now()
		rctx, cancel := context.WithTimeout(ctx, requestBudget)
		sp := tr.start("server.Client.Append", root)
		ar, err := s.cl.Append(rctx, info.ID, bytes.NewReader(chunk), i == len(s.chunks)-1)
		tr.end(sp)
		cancel()
		if err != nil {
			r.fail(fmt.Errorf("append chunk %d: %w", i, err))
			break
		}
		appended += ar.Appended
		rctx, cancel = context.WithTimeout(ctx, requestBudget)
		sp = tr.start("server.Client.Audit", root)
		doc, err := s.cl.Audit(rctx, info.ID)
		tr.end(sp)
		cancel()
		r.audits = append(r.audits, time.Since(c0))
		if err != nil {
			r.fail(fmt.Errorf("audit %d: %w", i, err))
			break
		}
		if doc.Outcome != core.Accept.String() {
			r.fail(fmt.Errorf("audit %d: verdict %s, want accept", i, doc.Outcome))
			break
		}
		if tr != nil {
			tr.derive(sp, "history.Validate", time.Duration(doc.Phases.ParseNS))
			derivePhases(tr, sp, docPhases(doc.Phases))
		}
		liveMax = max(liveMax, doc.History.Txns+doc.History.Aborted)
		if doc.Final != nil {
			closureMax = max(closureMax, doc.Final.ClosureBytes)
		}
		last = doc
	}
	r.verdict = time.Since(start)
	tr.end(root)
	if r.failed == 0 && appended != r.txns {
		r.fail(fmt.Errorf("session ingested %d txns, log holds %d", appended, r.txns))
	}
	if err := s.cl.DeleteSession(ctx, info.ID); err != nil {
		r.fail(fmt.Errorf("delete session: %w", err))
	}
	if tr != nil {
		r.layers = s.layers(tr, r, last, liveMax)
		r.layers["core.closure_mb"] = float64(closureMax) / mib
	}
	return r
}

func (s *stream) layers(tr *tracer, r rep, last *obs.ReportDoc, liveMax int) map[string]float64 {
	var appends, audits, overhead, construct, resolve, encode []float64
	for _, id := range tr.named(tr.trace, "server.Client.Append") {
		appends = append(appends, tr.spans[id-1].dur().Seconds())
	}
	for _, id := range tr.named(tr.trace, "server.Client.Audit") {
		audits = append(audits, tr.spans[id-1].dur().Seconds())
		overhead = append(overhead, tr.self(id).Seconds())
		construct = append(construct, tr.child(id, "core.construct").Seconds())
		resolve = append(resolve, tr.child(id, "core.resolve").Seconds())
		encode = append(encode, tr.child(id, "core.encode").Seconds())
	}
	l := map[string]float64{
		"server.append_s_p50":        percentile(appends, 50),
		"server.audit_req_s_p50":     percentile(audits, 50),
		"server.overhead_s_p50":      percentile(overhead, 50),
		"server.errors":              float64(r.failed),
		"core.audit_construct_s_p50": percentile(construct, 50),
		"core.audit_resolve_s_p50":   percentile(resolve, 50),
		"core.audit_encode_s_p50":    percentile(encode, 50),
		"core.live_txns_max":         float64(liveMax),
	}
	if last != nil && last.Checkpoint != nil {
		l["core.checkpoints"] = float64(last.Checkpoint.Count)
		l["core.cert_kb"] = float64(last.Checkpoint.CertBytes) / 1024
	}
	return l
}

// fleet is POST /cluster/check against an in-process coordinator and two
// workers on loopback.
type fleet struct {
	in    *Input
	nodes []*node // coordinator first
	cl    *server.Client
	want  *core.Report
}

func newCluster(p params) (fixture, error) {
	in, err := generate(p, Spec{Txns: pick(p, 20000, 400), ReadRatio: 0.5})
	if err != nil {
		return nil, err
	}
	// Smoke inputs are far below the default per-shard floor; lifting it
	// keeps two shards on the wire.
	minShardOps := 0
	if p.smoke {
		minShardOps = -1
	}
	f := &fleet{in: in}
	coord, err := startNode(server.Config{Role: "coordinator", IdleTTL: -1, AuditTimeout: checkBudget},
		func(srv *server.Server, url string) (func(http.Handler) http.Handler, func(), error) {
			c, err := cluster.NewCoordinator(srv, cluster.Config{NodeName: "coord", AdvertiseURL: url, MinShardOps: minShardOps})
			if err != nil {
				return nil, nil, err
			}
			return c.Handler, c.Close, nil
		})
	if err != nil {
		return nil, err
	}
	f.nodes = append(f.nodes, coord)
	for i := 0; i < 2; i++ {
		var wk *cluster.Worker
		n, err := startNode(server.Config{Role: "worker", IdleTTL: -1, AuditTimeout: checkBudget},
			func(srv *server.Server, url string) (func(http.Handler) http.Handler, func(), error) {
				w, err := cluster.NewWorker(srv, cluster.Config{NodeName: fmt.Sprintf("w%d", i), AdvertiseURL: url})
				if err != nil {
					return nil, nil, err
				}
				wk = w
				return w.Handler, w.Close, nil
			})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		jctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = wk.Join(jctx, coord.url)
		cancel()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	f.cl = newClient(coord.url)
	return f, nil
}

func (f *fleet) input() *Input { return f.in }

// close stops workers before the coordinator they announce to.
func (f *fleet) close() error {
	if f.cl != nil {
		closeClient(f.cl)
	}
	var first error
	for i := len(f.nodes) - 1; i >= 0; i-- {
		if err := f.nodes[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reference checks the same log on a single node, the verdict and graph
// every cluster reply must reproduce.
func (f *fleet) reference(ctx context.Context) error {
	h, err := histio.Decode(bytes.NewReader(f.in.Log))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	f.want = core.CheckHistoryContext(ctx, h, core.Options{Timeout: checkBudget})
	if f.want.Outcome == core.Timeout {
		return fmt.Errorf("reference: single-node check timed out")
	}
	return nil
}

// sentReader notes when the transport has read the last byte of the log.
// It offers Read alone, so copies cannot bypass it through WriteTo.
type sentReader struct {
	r    *bytes.Reader
	sent time.Time
}

func (r *sentReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if r.r.Len() == 0 && r.sent.IsZero() {
		r.sent = time.Now()
	}
	return n, err
}

// clusterConfig records each shard with one construction thread: three
// nodes share two vCPUs here, and two single-threaded workers match the
// two construction workers ts-accept gets on the same input.
var clusterConfig = server.SessionConfig{Level: "si", Parallelism: 1}

func (f *fleet) run(ctx context.Context, tr *tracer) rep {
	r := rep{attempted: 1, txns: f.in.Txns + f.in.Aborted}
	rctx, cancel := context.WithTimeout(ctx, checkBudget)
	defer cancel()
	body := &sentReader{r: bytes.NewReader(f.in.Log)}
	root := tr.start("server.Client.ClusterCheck", 0)
	start := time.Now()
	doc, err := f.cl.ClusterCheck(rctx, body, clusterConfig)
	end := time.Now()
	tr.end(root)
	r.verdict = end.Sub(start)
	if err != nil {
		r.fail(fmt.Errorf("cluster check: %w", err))
		return r
	}
	if doc.Cluster == nil {
		r.fail(fmt.Errorf("cluster check: reply has no cluster section"))
		return r
	}
	// The verdict's lag behind the last byte of the log leaving the client.
	r.audits = []time.Duration{end.Sub(body.sent)}
	w := f.want
	if doc.Outcome != w.Outcome.String() || doc.Graph.Nodes != w.Nodes ||
		doc.Graph.KnownEdges != w.KnownEdges || doc.Graph.Constraints != w.Constraints {
		r.fail(fmt.Errorf("cluster %s (%d nodes, %d known edges, %d constraints), single node %s (%d, %d, %d)",
			doc.Outcome, doc.Graph.Nodes, doc.Graph.KnownEdges, doc.Graph.Constraints,
			w.Outcome, w.Nodes, w.KnownEdges, w.Constraints))
	}
	if tr != nil {
		// The merged check books all record replay as construct, but part
		// of that replay runs inside disperse as shards arrive. Only the
		// phases after the merge are derived, so nothing is counted twice;
		// the replay of the final constraint pass stays in the call's self
		// time with HTTP and report encoding.
		c := doc.Cluster
		after := docPhases(doc.Phases)
		after.Construct = 0
		tr.derive(root, "histio.Decode", time.Duration(doc.Phases.ParseNS))
		tr.derive(root, "cluster.disperse", time.Duration(c.MergeNS))
		derivePhases(tr, root, after)
		self := tr.selfByName(tr.trace)
		r.layers = docLayers(doc)
		for name, key := range phaseMetrics {
			r.layers[key] = self[name].Seconds()
		}
		r.layers["core.construct_s"] = ns(doc.Phases.ConstructNS)
		r.layers["histio.decode_s"] = self["histio.Decode"].Seconds()
		r.layers["cluster.merge_s"] = self["cluster.disperse"].Seconds()
		r.layers["cluster.final_check_s"] = (after.TSOrder + after.Resolve + after.Encode + after.Solve).Seconds()
		r.layers["server.overhead_s_p50"] = self["server.Client.ClusterCheck"].Seconds()
		r.layers["cluster.shards"] = float64(len(c.Shards))
		r.layers["cluster.wire_mb_out"] = float64(c.WireBytesOut) / mib
		r.layers["cluster.wire_mb_in"] = float64(c.WireBytesIn) / mib
		r.layers["cluster.encode_s"] = ns(c.EncodeNS)
		r.layers["cluster.decode_s"] = ns(c.DecodeNS)
		r.layers["cluster.replay_s"] = ns(c.ReplayNS)
		r.layers["cluster.cross_constraints"] = float64(c.CrossShardConstraints)
		r.layers["cluster.local_fallbacks"] = float64(c.LocalFallbacks)
		r.layers["server.errors"] = float64(r.failed)
	}
	return r
}
