package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/obs"
)

// session is one named checking session: a viper.Checker plus the
// streaming-decode state that turns POSTed log chunks into appended
// transactions. Chunks may split records (and even the header) at
// arbitrary byte boundaries — the decoder runs in tail mode, buffering
// an unterminated final line until a later request completes it, exactly
// like `viper -follow` tailing a growing file.
//
// All mutating operations (append, audit, delete) serialize on mu — the
// underlying Checker is not safe for concurrent use. Progress and the
// listing endpoints read only the atomic mirrors, so observation never
// blocks behind a running audit.
type session struct {
	id     string
	level  string
	opts   core.Options
	maxOps int

	mu      sync.Mutex
	checker *viper.Checker
	buf     bytes.Buffer // undecoded stream bytes feeding dec
	dec     *histio.Decoder
	// ops is the lifetime operation count — everything the session ever
	// ingested, including transactions later compacted behind a checkpoint
	// fence. The op quota, by contrast, meters the *live* window
	// (checker.LiveOps): a checkpointing session can stream indefinitely
	// under a fixed quota, which is the whole point of bounded-memory
	// auditing.
	ops int
	// ingestErr is the session's terminal ingest failure (a decode error
	// or an exhausted quota): the stream position is unrecoverable, so
	// every later append reports the same failure. Audits stay allowed —
	// the prefix that did decode is a legitimate history.
	ingestErr    error
	ingestStatus int
	// counted is the last report whose work /metrics counted: a rejected
	// session returns its cached report on every later audit, and that
	// report's work ran once.
	counted *core.Report

	// Lock-free mirrors for listings, /healthz, and eviction. txns/opsN
	// mirror lifetime totals; liveTxns/liveOps the uncompacted window;
	// checkpoints/certBytes the session's checkpoint certificate.
	txns        atomic.Int64
	opsN        atomic.Int64
	liveTxns    atomic.Int64
	liveOps     atomic.Int64
	checkpoints atomic.Int64
	certBytes   atomic.Int64
	complete    atomic.Bool
	lastUsed    atomic.Int64 // unix nanos of the last client operation
}

func newSession(id string, opts core.Options, maxOps int, policy viper.CheckpointPolicy) *session {
	s := &session{
		id:      id,
		level:   opts.Level.String(),
		opts:    opts,
		maxOps:  maxOps,
		checker: viper.NewChecker(opts),
	}
	s.checker.SetCheckpointPolicy(policy)
	s.dec = histio.NewDecoder(&s.buf)
	s.dec.SetTail(true)
	s.touch()
	return s
}

// touch records client activity for idle-TTL eviction.
func (sess *session) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// quotaError marks quota-exhaustion ingest failures (HTTP 413). The quota
// meters the live (uncompacted) window, so sessions with a checkpoint
// policy reclaim quota at every checkpoint.
type quotaError struct{ limit, ops int }

func (e *quotaError) Error() string {
	return fmt.Sprintf("per-session live-op quota exceeded (limit %d, live window holds %d ops; enable a checkpoint policy or audit less history per session)", e.limit, e.ops)
}

// ingest appends one request body's bytes to the session stream and
// decodes every transaction that completed. With complete set, the
// stream is declared finished: the decoder leaves tail mode, so a final
// record cut off mid-write or a header/record-count mismatch surfaces
// here with the same histio error context `viper -follow` reports on
// idle-exit. Returns the transactions appended by this call and, on
// failure, the HTTP status the error maps to.
//
// Callers hold sess.mu.
func (sess *session) ingest(body io.Reader, complete bool) (appended int, status int, err error) {
	if sess.ingestErr != nil {
		return 0, sess.ingestStatus, sess.ingestErr
	}
	if sess.complete.Load() {
		return 0, http.StatusConflict, fmt.Errorf("session stream already completed")
	}
	fail := func(status int, err error) (int, int, error) {
		sess.ingestErr, sess.ingestStatus = err, status
		return appended, status, err
	}
	chunk := make([]byte, 32<<10)
	for {
		n, rerr := body.Read(chunk)
		if n > 0 {
			sess.buf.Write(chunk[:n])
			if derr := sess.drain(&appended); derr != nil {
				return fail(ingestStatusFor(derr), derr)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// The request body failed mid-transfer (client went away). The
			// session itself is fine: the decoder buffered any partial line
			// and a retry can continue the stream.
			return appended, http.StatusBadRequest, fmt.Errorf("reading request body: %v", rerr)
		}
	}
	if complete {
		// Leaving tail mode makes the decoder treat the stream as finished:
		// a buffered partial line is decoded as-is (mid-record EOF fails
		// JSON decoding with line/record context) and the header's declared
		// transaction count is enforced.
		sess.dec.SetTail(false)
		if derr := sess.drain(&appended); derr != nil {
			return fail(ingestStatusFor(derr), derr)
		}
		sess.complete.Store(true)
	}
	return appended, http.StatusOK, nil
}

// ingestStatusFor maps a drain failure to its HTTP status: quota
// exhaustion is 413, malformed stream content is 400.
func ingestStatusFor(err error) int {
	var qe *quotaError
	if errors.As(err, &qe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// drain decodes every currently-complete record into the checker,
// enforcing the op quota.
func (sess *session) drain(appended *int) error {
	for {
		t, err := sess.dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if live := int(sess.checker.LiveOps()); live+len(t.Ops) > sess.maxOps {
			return &quotaError{limit: sess.maxOps, ops: live}
		}
		sess.checker.Append(t)
		sess.ops += len(t.Ops)
		*appended++
	}
}

// audit runs one incremental audit under ctx and assembles the report
// document — the same document cmd/viper emits for the same check, via
// the shared core.BuildReportDoc. work is the report whose resolution and
// timestamp counters /metrics adds, nil when the audit returned a report
// it already counted. Callers hold sess.mu (audits serialize with
// appends) and the admission gate.
func (sess *session) audit(ctx context.Context) (res *viper.Result, doc *obs.ReportDoc, work *core.Report) {
	res = sess.checker.AuditContext(ctx)
	doc = sess.checker.ReportDoc("viperd", res)
	// An accepting audit may have auto-checkpointed, shrinking the live
	// window; refresh the mirrors so listings and /metrics see it.
	sess.syncMirrors()
	if res.Report != sess.counted {
		work, sess.counted = res.Report, res.Report
	}
	return res, doc, work
}

// auditMatrix runs one verdict-matrix audit under ctx and assembles the
// matrix report document — the same document `viper -matrix` emits for
// the same history (Checker.MatrixDoc, over the live window). The matrix
// session's warm state (see viper.Checker.AuditMatrix) persists across
// requests, so repeated ?matrix=1 audits of a growing session cost
// roughly the delta. Callers hold sess.mu and the admission gate.
func (sess *session) auditMatrix(ctx context.Context) (*viper.MatrixResult, *obs.ReportDoc) {
	res := sess.checker.AuditMatrixContext(ctx)
	doc := sess.checker.MatrixDoc("viperd", res)
	sess.syncMirrors()
	return res, doc
}

// syncMirrors refreshes the lock-free counters after a mutation under mu.
func (sess *session) syncMirrors() {
	cert := sess.checker.Certificate()
	sess.txns.Store(int64(sess.checker.LifetimeLen()))
	sess.opsN.Store(int64(sess.ops))
	sess.liveTxns.Store(int64(sess.checker.Len()))
	sess.liveOps.Store(sess.checker.LiveOps())
	sess.checkpoints.Store(int64(cert.Checkpoints))
	sess.certBytes.Store(cert.Bytes)
}
