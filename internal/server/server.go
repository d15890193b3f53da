// Package server implements viperd, the checking-as-a-service daemon: an
// HTTP layer (stdlib net/http only) over viper's online incremental
// Checker. Clients create named sessions, stream history chunks into
// them, and request audits; the server owns session lifecycle (max
// count, per-session op quotas, idle-TTL eviction), admission control
// for solver work (a bounded worker pool with a bounded queue — beyond
// that, 429), and operability surfaces (/metrics, per-session progress,
// /healthz, graceful shutdown that drains in-flight audits).
//
// # API
//
//	POST   /v1/sessions               create a session  {"name","level",...}
//	GET    /v1/sessions               list sessions
//	DELETE /v1/sessions/{id}          delete a session
//	POST   /v1/sessions/{id}/append   stream history chunks (?complete=1 to finish)
//	POST   /v1/sessions/{id}/audit    run an audit, returns an obs.ReportDoc
//	                                  (?matrix=1 audits the whole isolation-
//	                                  level verdict matrix instead)
//	GET    /v1/sessions/{id}/progress live progress snapshot of a running audit
//	GET    /healthz                   liveness + version
//	GET    /metrics                   text key/value counters
//
// Errors are JSON bodies {"error": "..."}; malformed-stream 400s carry
// the structured histio.ErrorDetail under "detail".
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/obs"
	"viper/internal/version"
)

// Config sizes the daemon. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// MaxSessions caps live sessions; creation beyond it is refused with
	// 429 until a session is deleted or evicted. Default 64.
	MaxSessions int
	// MaxSessionOps caps the operations one session may ingest (its memory
	// footprint is proportional). Exceeding it poisons the session's
	// ingest with 413. Default 1<<20.
	MaxSessionOps int
	// IdleTTL evicts sessions untouched for this long. Default 15m;
	// negative disables eviction.
	IdleTTL time.Duration
	// AuditTimeout bounds each audit request (merged with the client's
	// context: whichever expires first). Default 60s; negative means no
	// server-side bound.
	AuditTimeout time.Duration
	// Workers caps concurrently running audits. Default GOMAXPROCS.
	Workers int
	// QueueDepth caps audits waiting for a worker; beyond it requests get
	// an immediate 429 + Retry-After instead of queueing unboundedly.
	// Default 2*Workers.
	QueueDepth int
	// CheckpointEvery and MaxLiveOps are the default checkpoint policy for
	// sessions that do not set their own (see SessionConfig): after every
	// accepting audit whose live window crosses either threshold, the
	// session compacts its checked prefix into a certificate and reclaims
	// the memory (and op quota). Zero leaves sessions unbounded, as before.
	CheckpointEvery int
	MaxLiveOps      int
	// Logger receives request logs; nil discards them.
	Logger *log.Logger
	// Role names the node's cluster role ("coordinator", "worker") in
	// /healthz, so clients and peers can discover the topology. Empty for
	// a standalone daemon.
	Role string
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxSessionOps == 0 {
		c.MaxSessionOps = 1 << 20
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 15 * time.Minute
	}
	if c.AuditTimeout == 0 {
		c.AuditTimeout = 60 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Server is the daemon: session registry, admission gate, metrics, and
// the HTTP handler over them. Create with New, serve with Serve (or
// mount Handler on a listener of your own), stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *obs.Counters
	start   time.Time

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool

	// Admission gate: tokens holds one slot per worker; waiting counts
	// queued acquirers and is bounded by QueueDepth.
	tokens  chan struct{}
	waiting atomic.Int64

	// inflight tracks running audits so Shutdown can drain them even when
	// the handler is mounted on an external http.Server.
	inflight sync.WaitGroup

	janitorStop chan struct{}
	janitorDone chan struct{}
	stopOnce    sync.Once

	httpMu  sync.Mutex
	httpSrv *http.Server

	// preAudit, when set, runs after a session's audit request passes
	// admission but before the solve starts, with the request's (possibly
	// deadline-wrapped) context. Tests use it to hold an audit in a known
	// state (e.g. to race a client disconnect against it).
	preAudit func(id string, ctx context.Context)
}

// New returns a configured server. It starts the idle-eviction janitor;
// call Shutdown to stop it even if the server never serves traffic.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		metrics:     obs.NewCounters(),
		start:       time.Now(),
		sessions:    make(map[string]*session),
		tokens:      make(chan struct{}, cfg.Workers),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/sessions/{id}/audit", s.handleAudit)
	s.mux.HandleFunc("GET /v1/sessions/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.IdleTTL > 0 {
		go s.janitor()
	} else {
		close(s.janitorDone)
	}
	return s
}

// Handler returns the server's HTTP handler (request logging included),
// for mounting on an http.Server or httptest.Server of the caller's.
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	return s.ServeWith(l, s.Handler())
}

// ServeWith is Serve with a caller-supplied handler — typically this
// server's Handler wrapped by cluster middleware (coordinator routing,
// worker shard endpoints). Shutdown drains and closes the listener the
// same way.
func (s *Server) ServeWith(l net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown stops the server gracefully: no new sessions or audits are
// admitted, in-flight audits run to completion (bounded by ctx — when it
// expires their request contexts are canceled, which interrupts the
// solves), the janitor stops, and, when Serve was used, the listener
// closes and idle connections are torn down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.janitorStop) })
	<-s.janitorDone

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		if herr := srv.Shutdown(ctx); err == nil {
			err = herr
		}
	}
	return err
}

// Metrics exposes the server's counter registry (tests and embedders).
func (s *Server) Metrics() *obs.Counters { return s.metrics }

// Draining reports whether Shutdown has begun: the node still answers
// requests on open connections but must not be routed new work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// AdmitAudit runs solver-bound work through the server's admission
// machinery exactly like a session audit: refused while draining,
// counted as in-flight (so Shutdown waits for it), and holding one
// bounded worker token. Cluster endpoints that solve on this node use
// it so distributed checks respect the same capacity limits as local
// ones. The returned release must be called when the work ends;
// saturation returns ErrSaturated.
func (s *Server) AdmitAudit(ctx context.Context) (release func(), err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	tokenRelease, err := s.acquire(ctx)
	if err != nil {
		s.inflight.Done()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			tokenRelease()
			s.inflight.Done()
		})
	}, nil
}

// ---- session registry ----

func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := s.cfg.IdleTTL / 4
	if tick < 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	if tick > time.Minute {
		tick = time.Minute
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.evictIdle()
		}
	}
}

// evictIdle removes sessions idle past the TTL. A session busy in an
// audit holds its mutex, so TryLock naturally skips it — activity is
// what the TTL measures.
func (s *Server) evictIdle() {
	cutoff := time.Now().Add(-s.cfg.IdleTTL).UnixNano()
	s.mu.Lock()
	var idle []*session
	for _, sess := range s.sessions {
		if sess.lastUsed.Load() < cutoff {
			idle = append(idle, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range idle {
		if !sess.mu.TryLock() {
			continue // mid-operation; it will refresh lastUsed
		}
		if sess.lastUsed.Load() < cutoff {
			s.mu.Lock()
			if s.sessions[sess.id] == sess {
				delete(s.sessions, sess.id)
				s.metrics.Add("viperd_sessions_evicted_total", 1)
				s.metrics.Set("viperd_sessions_active", int64(len(s.sessions)))
			}
			s.mu.Unlock()
		}
		sess.mu.Unlock()
	}
}

// ---- admission gate ----

// ErrSaturated is returned by acquire (and AdmitAudit) when the audit
// workers and the bounded queue are both full; ErrShuttingDown when the
// server is draining. Both map to retryable HTTP statuses (429, 503).
var (
	ErrSaturated    = fmt.Errorf("audit workers and queue are saturated")
	ErrShuttingDown = fmt.Errorf("server is shutting down")
)

// errSaturated is the historical internal alias.
var errSaturated = ErrSaturated

// acquire claims an audit worker slot. A free slot is claimed
// immediately; otherwise the caller joins the bounded queue, and when
// the queue is full acquire fails at once — the server never queues
// unboundedly. The returned release must be called when the audit ends.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.tokens <- struct{}{}:
		return s.release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, errSaturated
	}
	defer s.waiting.Add(-1)
	select {
	case s.tokens <- struct{}{}:
		return s.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) release() { <-s.tokens }

// ---- HTTP plumbing ----

// apiError is the JSON error body. Stream decode failures carry the
// structured histio detail so clients see the exact line/record/op
// context the CLI would print.
type apiError struct {
	Error  string              `json:"error"`
	Detail *histio.ErrorDetail `json:"detail,omitempty"`
}

// WriteJSON writes v as the indented JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as the daemon's JSON error body (the histio
// detail included when err is a stream decode failure); APIErrorFrom
// reads it back.
func WriteError(w http.ResponseWriter, status int, err error) {
	body := apiError{Error: err.Error()}
	if d, ok := histio.Describe(err); ok {
		body.Detail = &d
	}
	WriteJSON(w, status, body)
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.metrics.Add("viperd_http_requests_total", 1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, req)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s %d %s", req.Method, req.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
		}
	})
}

// ---- handlers ----

// SessionConfig is the session-creation request body. Level accepts the
// same names the CLI's -level flag does; unset fields take the checker's
// defaults, and a field not defined here is refused with 400, as is a
// negative clock_drift_ns, parallelism or initial_k.
type SessionConfig struct {
	// Name is an optional client-chosen prefix for the session id (ids are
	// always server-assigned and unique).
	Name string `json:"name,omitempty"`
	// Level is the isolation level to check ("si", "gsi", "sssi",
	// "strong-si", "ser", "rc", "read-atomic", "causal"); default "si".
	// Matrix audits (?matrix=1) always cover every lattice level and
	// ignore the session level.
	Level string `json:"level,omitempty"`
	// ClockDriftNS is the real-time levels' drift bound in nanoseconds.
	ClockDriftNS int64 `json:"clock_drift_ns,omitempty"`
	// Parallelism caps the goroutines each audit's polygraph construction
	// starts (0 = all cores); the pool never starts more than the keys it
	// records.
	Parallelism int `json:"parallelism,omitempty"`
	// InitialK overrides the pruning heuristic's starting k.
	InitialK int `json:"initial_k,omitempty"`
	// DisablePruning turns off §3.5 heuristic pruning.
	DisablePruning bool `json:"disable_pruning,omitempty"`
	// DisableResolve turns off constraint resolution: the pre-solve pass
	// and the evidence pass that names a refuted reject's cycle.
	DisableResolve bool `json:"disable_resolve,omitempty"`
	// CheckpointEvery/MaxLiveOps/CheckpointKeep configure the session's
	// auto-checkpoint policy (viper.CheckpointPolicy): checkpoint after an
	// accepting audit once the live window holds CheckpointEvery
	// transactions or MaxLiveOps operations, keeping CheckpointKeep
	// transactions live. When both triggers are zero the server's default
	// policy (Config.CheckpointEvery/MaxLiveOps) applies.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	MaxLiveOps      int `json:"max_live_ops,omitempty"`
	CheckpointKeep  int `json:"checkpoint_keep,omitempty"`
}

// SessionInfo is one session's public state, as listed by GET
// /v1/sessions and returned by creation.
type SessionInfo struct {
	ID    string `json:"id"`
	Level string `json:"level"`
	// Txns/Ops are lifetime totals (everything ever ingested); LiveTxns/
	// LiveOps the uncompacted window a checkpoint policy bounds. Without
	// checkpoints the pairs coincide.
	Txns        int64 `json:"txns"`
	Ops         int64 `json:"ops"`
	LiveTxns    int64 `json:"live_txns"`
	LiveOps     int64 `json:"live_ops"`
	Checkpoints int64 `json:"checkpoints,omitempty"`
	CertBytes   int64 `json:"cert_bytes,omitempty"`
	Complete    bool  `json:"complete"`
}

func (sess *session) info() SessionInfo {
	return SessionInfo{
		ID:          sess.id,
		Level:       sess.level,
		Txns:        sess.txns.Load(),
		Ops:         sess.opsN.Load(),
		LiveTxns:    sess.liveTxns.Load(),
		LiveOps:     sess.liveOps.Load(),
		Checkpoints: sess.checkpoints.Load(),
		CertBytes:   sess.certBytes.Load(),
		Complete:    sess.complete.Load(),
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var cfg SessionConfig
	if req.Body != nil {
		// An unknown field is a typo or a retired option: refuse it rather
		// than run the session with defaults.
		dec := json.NewDecoder(io.LimitReader(req.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil && err != io.EOF {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %v", err))
			return
		}
	}
	opts := core.Options{
		ClockDrift:     time.Duration(cfg.ClockDriftNS),
		Parallelism:    cfg.Parallelism,
		InitialK:       cfg.InitialK,
		DisablePruning: cfg.DisablePruning,
		DisableResolve: cfg.DisableResolve,
	}
	if err := opts.CheckKnobs("parallelism", "initial_k", "clock_drift_ns"); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if cfg.Level != "" {
		lvl, ok := core.ParseLevel(cfg.Level)
		if !ok {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown isolation level %q", cfg.Level))
			return
		}
		opts.Level = lvl
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.metrics.Add("viperd_session_rejects_total", 1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, fmt.Errorf("session limit reached (%d); delete one or retry later", s.cfg.MaxSessions))
		return
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	if cfg.Name != "" {
		id = fmt.Sprintf("%s-%d", cfg.Name, s.nextID)
	}
	policy := viper.CheckpointPolicy{
		EveryTxns:  cfg.CheckpointEvery,
		MaxLiveOps: cfg.MaxLiveOps,
		Keep:       cfg.CheckpointKeep,
	}
	if cfg.CheckpointEvery == 0 && cfg.MaxLiveOps == 0 {
		policy.EveryTxns, policy.MaxLiveOps = s.cfg.CheckpointEvery, s.cfg.MaxLiveOps
	}
	sess := newSession(id, opts, s.cfg.MaxSessionOps, policy)
	s.sessions[id] = sess
	active := len(s.sessions)
	s.mu.Unlock()

	s.metrics.Add("viperd_sessions_created_total", 1)
	s.metrics.Set("viperd_sessions_active", int64(active))
	WriteJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	infos := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		infos = append(infos, sess.info())
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	WriteJSON(w, http.StatusOK, map[string][]SessionInfo{"sessions": infos})
}

func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.metrics.Add("viperd_sessions_deleted_total", 1)
		s.metrics.Set("viperd_sessions_active", int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAppend(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	sess.touch()
	complete := req.URL.Query().Get("complete") == "1" || req.URL.Query().Get("complete") == "true"

	sess.mu.Lock()
	appended, status, err := sess.ingest(req.Body, complete)
	sess.syncMirrors()
	sess.mu.Unlock()
	sess.touch()

	s.metrics.Add("viperd_appends_total", 1)
	s.metrics.Add("viperd_txns_ingested_total", int64(appended))
	if err != nil {
		s.metrics.Add("viperd_append_errors_total", 1)
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		Appended int   `json:"appended"`
		Txns     int64 `json:"txns"`
		Ops      int64 `json:"ops"`
		Complete bool  `json:"complete"`
	}{appended, sess.txns.Load(), sess.opsN.Load(), sess.complete.Load()})
}

func (s *Server) handleAudit(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	sess.touch()

	ctx := req.Context()
	if s.cfg.AuditTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.AuditTimeout)
		defer cancel()
	}

	release, err := s.acquire(ctx)
	if err != nil {
		if err == errSaturated {
			s.metrics.Add("viperd_audit_saturations_total", 1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, err)
			return
		}
		// The client went away (or the deadline passed) while queued.
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("canceled while queued: %v", err))
		return
	}
	defer release()

	if s.preAudit != nil {
		s.preAudit(id, ctx)
	}

	if q := req.URL.Query().Get("matrix"); q == "1" || q == "true" {
		s.auditMatrix(w, ctx, sess)
		return
	}

	sess.mu.Lock()
	res, doc := sess.audit(ctx)
	sess.mu.Unlock()
	sess.touch()

	s.metrics.Add("viperd_audits_total", 1)
	s.metrics.Add("viperd_audits_"+res.Outcome.String()+"_total", 1)
	if rep := res.Report; rep != nil {
		// The warm checker's ForcedEdges and timestamp counters are
		// session-cumulative, and its ResolvedConstraints counts the
		// session's constraints resolution currently discharges; swap each
		// against its high-water mark so an audit adds only its growth.
		if d := int64(rep.ResolvedConstraints) - sess.resolvedSeen.Swap(int64(rep.ResolvedConstraints)); d > 0 {
			s.metrics.Add("viperd_resolved_constraints_total", d)
		}
		if d := int64(rep.ForcedEdges) - sess.forcedSeen.Swap(int64(rep.ForcedEdges)); d > 0 {
			s.metrics.Add("viperd_forced_edges_total", d)
		}
		if d := int64(rep.TSDecided) - sess.tsDecidedSeen.Swap(int64(rep.TSDecided)); d > 0 {
			s.metrics.Add("viperd_ts_decided_total", d)
		}
		if d := int64(rep.TSResidual) - sess.tsResidualSeen.Swap(int64(rep.TSResidual)); d > 0 {
			s.metrics.Add("viperd_ts_residual_total", d)
		}
	}
	// Checkpoint accounting: Compacted is this audit's delta, no
	// high-water swap needed.
	if res.Compacted > 0 {
		s.metrics.Add("viperd_checkpoints_total", 1)
		s.metrics.Add("viperd_compacted_txns_total", int64(res.Compacted))
	}
	if res.Outcome == core.Timeout && ctx.Err() != nil {
		// The request deadline (or the client's disconnect) interrupted the
		// solve; 504 distinguishes that from a genuine verdict.
		WriteJSON(w, http.StatusGatewayTimeout, doc)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

// auditMatrix is handleAudit's ?matrix=1 tail: one verdict-matrix pass
// over the session, with per-level outcome counters on /metrics
// (viperd_matrix_<level>_<outcome>_total — derived verdicts count the
// same as checked ones, so scrapes see the full matrix every audit).
func (s *Server) auditMatrix(w http.ResponseWriter, ctx context.Context, sess *session) {
	sess.mu.Lock()
	res, doc := sess.auditMatrix(ctx)
	sess.mu.Unlock()
	sess.touch()

	s.metrics.Add("viperd_audits_total", 1)
	s.metrics.Add("viperd_matrix_audits_total", 1)
	s.metrics.Add("viperd_audits_"+res.Outcome.String()+"_total", 1)
	if mr := res.Matrix; mr != nil {
		for i := range mr.Verdicts {
			v := &mr.Verdicts[i]
			lvl := strings.ReplaceAll(v.Level.String(), "-", "_")
			s.metrics.Add("viperd_matrix_"+lvl+"_"+v.Outcome.String()+"_total", 1)
		}
	}
	if res.Outcome == core.Timeout && ctx.Err() != nil {
		WriteJSON(w, http.StatusGatewayTimeout, doc)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) handleProgress(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	// Checker.Progress is safe concurrently with a running audit — this
	// endpoint must not block behind sess.mu.
	snap := sess.checker.Progress()
	WriteJSON(w, http.StatusOK, snap)
}

// Health is the /healthz response body. Live and Ready separate the two
// questions a fleet asks: Live is "is the process up" (true for as long
// as the listener answers at all), Ready is "should new work be routed
// here" (false the moment a drain begins — Shutdown flips the flag
// before the listener closes, so health checks and load balancers stop
// routing to a draining node while its in-flight audits finish).
type Health struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Role     string `json:"role,omitempty"`
	Live     bool   `json:"live"`
	Ready    bool   `json:"ready"`
	Sessions int    `json:"sessions"`
	UptimeNS int64  `json:"uptime_ns"`
}

// handleHealthz serves three probes:
//
//	GET /healthz             legacy combined probe: 503 while draining
//	GET /healthz?probe=live  liveness: 200 for as long as we answer
//	GET /healthz?probe=ready readiness: 503 the moment a drain begins
//
// All three return the same Health body; only the status code differs.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	closed := s.closed
	s.mu.Unlock()
	h := Health{
		Status:   "ok",
		Version:  version.Version,
		Role:     s.cfg.Role,
		Live:     true,
		Ready:    !closed,
		Sessions: n,
		UptimeNS: int64(time.Since(s.start)),
	}
	code := http.StatusOK
	if closed {
		h.Status = "shutting-down"
		if req.URL.Query().Get("probe") != "live" {
			code = http.StatusServiceUnavailable
		}
	}
	WriteJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Set("viperd_uptime_seconds", int64(time.Since(s.start)/time.Second))
	s.metrics.Set("viperd_audit_queue_depth", s.waiting.Load())
	s.metrics.Set("viperd_audit_workers_busy", int64(len(s.tokens)))
	// Memory gauges summed over live sessions: lifetime ops versus the
	// live window the checkpoint policies bound, plus what the fences
	// cost to carry. Read from the lock-free mirrors so scraping never
	// blocks behind a running audit.
	var totalOps, liveTxns, liveOps, certBytes int64
	s.mu.Lock()
	for _, sess := range s.sessions {
		totalOps += sess.opsN.Load()
		liveTxns += sess.liveTxns.Load()
		liveOps += sess.liveOps.Load()
		certBytes += sess.certBytes.Load()
	}
	s.mu.Unlock()
	s.metrics.Set("viperd_session_ops_total", totalOps)
	s.metrics.Set("viperd_live_txns", liveTxns)
	s.metrics.Set("viperd_live_ops", liveOps)
	s.metrics.Set("viperd_cert_bytes", certBytes)
	s.metrics.WriteText(w)
}
