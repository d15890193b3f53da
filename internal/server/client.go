package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"viper/internal/histio"
	"viper/internal/obs"
)

// retryAfterSeconds parses a Retry-After header value. RFC 9110 §10.2.3
// allows two forms: a non-negative decimal span of seconds, and an
// HTTP-date after which the client may retry. viperd itself always sends
// seconds, but this client may sit behind proxies that rewrite the
// header to a date; treating that as "no backoff" would turn a polite
// 429 into a hammering loop. A date already in the past (or a value in
// neither form) means no wait.
func retryAfterSeconds(h string) time.Duration {
	if h == "" {
		return 0
	}
	if n, err := strconv.Atoi(h); err == nil {
		if n < 0 {
			return 0
		}
		return time.Duration(n) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// RetryPolicy bounds the client's automatic retries of requests the
// server refused with 429 (admission control) or 503 (draining, or
// canceled while queued) — both statuses are issued before the server
// processes anything, so repeating the request is always safe. The
// schedule is exponential with additive jitter, and the server's parsed
// Retry-After is honored as a floor: the client never knocks again
// earlier than the server asked.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt; zero
	// disables retrying (the zero policy is inert).
	MaxRetries int
	// BaseDelay seeds the exponential schedule (attempt i backs off
	// ~BaseDelay<<i); default 100ms when MaxRetries > 0.
	BaseDelay time.Duration
	// MaxDelay caps the un-jittered exponential term; default 5s.
	MaxDelay time.Duration

	// rand returns the jitter draw in [0,1); tests inject a deterministic
	// source. Nil uses math/rand.
	rand func() float64
}

// DefaultRetryPolicy is the schedule cmd/viper's remote mode and the
// cluster coordinator use: 4 retries, 100ms … 5s exponential, +0–50%
// jitter (worst case ~8s of waiting before giving up).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// Delay computes the backoff before retry attempt (0-based), given the
// server's Retry-After suggestion. The un-jittered term doubles from
// BaseDelay and is capped at MaxDelay; Retry-After raises it when the
// server asked for longer; jitter then adds up to +50% of the result so
// a thundering herd of equally-refused clients decorrelates. The result
// is never below Retry-After.
func (p RetryPolicy) Delay(attempt int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if retryAfter > d {
		d = retryAfter
	}
	r := p.rand
	if r == nil {
		r = rand.Float64
	}
	return d + time.Duration(r()*float64(d)/2)
}

// retryable reports whether status is one of the two pre-processing
// refusals the policy covers.
func (p RetryPolicy) retryable(status int) bool {
	return p.MaxRetries > 0 &&
		(status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable)
}

// Do runs one request attempt, and runs it again while it fails with a
// 429 or 503 *APIError and the policy has retries left: after Delay's
// backoff (the refusal's Retry-After as its floor), unless ctx ends
// first. body is the attempt's request body: nil, or a seekable reader
// rewound to its start before every retry; a body that cannot be
// rewound is never replayed. An attempt that builds its body afresh
// passes nil. Do returns the last attempt's error.
func (p RetryPolicy) Do(ctx context.Context, body io.Reader, attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		ae, isAPI := err.(*APIError)
		if !isAPI || !p.retryable(ae.Status) || n >= p.MaxRetries || !rewind(body) {
			return err
		}
		t := time.NewTimer(p.Delay(n, ae.RetryAfter))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// Client is the Go client for a viperd server. It speaks the whole API:
// session lifecycle, streaming append, audits, progress, metrics,
// health, and the cluster endpoints. cmd/viper's remote mode and the
// end-to-end tests are built on it. A Client is safe for concurrent use.
type Client struct {
	base string
	// HTTP is the underlying client; replace it to set timeouts or
	// transports. Defaults to http.DefaultClient.
	HTTP *http.Client
	// Retry configures automatic backoff on 429/503. The zero value never
	// retries (historical behavior); see DefaultRetryPolicy. Requests
	// whose body cannot be replayed (a non-seekable stream) are never
	// retried regardless of the policy.
	Retry RetryPolicy
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:7457").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

// rewind prepares body for another attempt. A nil body needs nothing; a
// seekable one rewinds; anything else cannot be replayed.
func rewind(body io.Reader) bool {
	if body == nil {
		return true
	}
	s, ok := body.(io.Seeker)
	if !ok {
		return false
	}
	_, err := s.Seek(0, io.SeekStart)
	return err == nil
}

// APIError is a non-2xx server response: the HTTP status, the server's
// message, the structured stream-decode detail when the failure was a
// malformed history (Detail renders exactly like the CLI's error), and
// the suggested backoff when the server was saturated (429).
type APIError struct {
	Status     int
	Message    string
	Detail     *histio.ErrorDetail
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("viperd: HTTP %d: %s", e.Status, e.Message)
}

// IsSaturated reports whether err is the server refusing work under
// admission control (HTTP 429) — retry after err.RetryAfter.
func IsSaturated(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// do sends one request and decodes a JSON response into out (when
// non-nil), turning non-2xx responses into *APIError. 429/503 refusals
// are retried under the client's RetryPolicy when the body is
// replayable.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	return c.Retry.Do(ctx, body, func() error { return c.doOnce(ctx, method, path, body, out) })
}

func (c *Client) doOnce(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return APIErrorFrom(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// APIErrorFrom turns a non-2xx response into an *APIError, consuming (a
// bounded prefix of) the body: the daemon's JSON error message and
// detail when the body carries them, the status line otherwise, and
// the Retry-After header in either of its forms.
func APIErrorFrom(resp *http.Response) *APIError {
	ae := &APIError{
		Status:     resp.StatusCode,
		RetryAfter: retryAfterSeconds(resp.Header.Get("Retry-After")),
	}
	var body apiError
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body) == nil && body.Error != "" {
		ae.Message, ae.Detail = body.Error, body.Detail
	} else {
		ae.Message = resp.Status
	}
	return ae
}

// CreateSession creates a checking session and returns its state (the
// server-assigned ID in particular).
func (c *Client) CreateSession(ctx context.Context, cfg SessionConfig) (SessionInfo, error) {
	buf, err := json.Marshal(cfg)
	if err != nil {
		return SessionInfo{}, err
	}
	var info SessionInfo
	err = c.do(ctx, http.MethodPost, "/v1/sessions", bytes.NewReader(buf), &info)
	return info, err
}

// Sessions lists the server's live sessions.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	var out struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out.Sessions, err
}

// DeleteSession removes a session and frees its state.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// AppendResult reports one append call's effect.
type AppendResult struct {
	// Appended is the number of transactions this call decoded.
	Appended int `json:"appended"`
	// Txns and Ops are the session's running totals.
	Txns int64 `json:"txns"`
	Ops  int64 `json:"ops"`
	// Complete is set once the stream has been declared finished.
	Complete bool `json:"complete"`
}

// Append streams one chunk of history-log bytes into the session. Chunks
// may split records anywhere — the server buffers partial lines across
// calls. Set complete on the final chunk (or call Complete) to declare
// the stream finished, which also validates the header's declared
// transaction count.
func (c *Client) Append(ctx context.Context, id string, chunk io.Reader, complete bool) (AppendResult, error) {
	path := "/v1/sessions/" + id + "/append"
	if complete {
		path += "?complete=1"
	}
	var res AppendResult
	err := c.do(ctx, http.MethodPost, path, chunk, &res)
	return res, err
}

// Complete declares the session's stream finished without new bytes.
func (c *Client) Complete(ctx context.Context, id string) (AppendResult, error) {
	return c.Append(ctx, id, strings.NewReader(""), true)
}

// Audit runs an audit over everything the session has ingested and
// returns the server's report document — the same document cmd/viper
// -report-json emits for the same history. Saturation surfaces as an
// *APIError with IsSaturated(err) true; a request-deadline timeout
// returns the report with Outcome "timeout" alongside an HTTP 504
// *APIError-free success (the document itself carries the verdict).
func (c *Client) Audit(ctx context.Context, id string) (*obs.ReportDoc, error) {
	return c.audit(ctx, id, "")
}

// AuditMatrix runs a verdict-matrix audit (?matrix=1): every isolation
// level of the lattice in one pass, the same document `viper -matrix
// -report-json` emits. The document's Level is "matrix", its Outcome the
// aggregate verdict, and the per-level rows live under Matrix.
func (c *Client) AuditMatrix(ctx context.Context, id string) (*obs.ReportDoc, error) {
	return c.audit(ctx, id, "?matrix=1")
}

func (c *Client) audit(ctx context.Context, id, query string) (*obs.ReportDoc, error) {
	return c.reportRequest(ctx, "/v1/sessions/"+id+"/audit"+query, nil)
}

// reportRequest POSTs to a report-document endpoint (audit, cluster
// check) and decodes the response, retrying 429/503 refusals under the
// policy when the body is replayable. A 504 still carries a
// (timeout-outcome) document.
func (c *Client) reportRequest(ctx context.Context, path string, body io.Reader) (*obs.ReportDoc, error) {
	var doc *obs.ReportDoc
	err := c.Retry.Do(ctx, body, func() (err error) {
		doc, err = c.reportRequestOnce(ctx, path, body)
		return err
	})
	return doc, err
}

func (c *Client) reportRequestOnce(ctx context.Context, path string, body io.Reader) (*obs.ReportDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// 504 still carries a (timeout-outcome) report document.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		return nil, APIErrorFrom(resp)
	}
	return obs.DecodeReport(resp.Body)
}

// Progress returns the session's live progress snapshot; during a
// running audit this is the solver's latest sampling tick.
func (c *Client) Progress(ctx context.Context, id string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/progress", nil, &snap)
	return snap, err
}

// Health returns the server's liveness document.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// ClusterNode is one fleet member as reported by a coordinator's GET
// /cluster/nodes.
type ClusterNode struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Version string `json:"version"`
	Healthy bool   `json:"healthy"`
	// Sessions is the node's live session count at its last heartbeat.
	Sessions int `json:"sessions"`
	// LastSeenNS is nanoseconds since the coordinator last saw the node
	// ready (heartbeat or join).
	LastSeenNS int64 `json:"last_seen_ns"`
}

// ClusterNodesResponse is the GET /cluster/nodes body.
type ClusterNodesResponse struct {
	Coordinator string        `json:"coordinator"`
	Version     string        `json:"version"`
	Nodes       []ClusterNode `json:"nodes"`
}

// ClusterNodes lists a coordinator's fleet members. Non-coordinator
// nodes answer 404.
func (c *Client) ClusterNodes(ctx context.Context) (ClusterNodesResponse, error) {
	var out ClusterNodesResponse
	err := c.do(ctx, http.MethodGet, "/cluster/nodes", nil, &out)
	return out, err
}

// ClusterCheck streams one whole history (JSON-lines format, like a
// session append) to a coordinator's POST /cluster/check: the
// coordinator splits it by key range across the fleet, merges the
// shard digests, solves once, and returns the same report document a
// single-node check of the identical history would produce (plus a
// "cluster" section describing the distribution). cfg supplies the
// checking knobs a session creation would (level, drift, parallelism,
// initial k, pruning, resolution); Name/checkpoint fields are ignored.
func (c *Client) ClusterCheck(ctx context.Context, history io.Reader, cfg SessionConfig) (*obs.ReportDoc, error) {
	q := url.Values{}
	if cfg.Level != "" {
		q.Set("level", cfg.Level)
	}
	if cfg.ClockDriftNS != 0 {
		q.Set("clock_drift_ns", strconv.FormatInt(cfg.ClockDriftNS, 10))
	}
	if cfg.Parallelism != 0 {
		q.Set("parallelism", strconv.Itoa(cfg.Parallelism))
	}
	if cfg.InitialK != 0 {
		q.Set("initial_k", strconv.Itoa(cfg.InitialK))
	}
	if cfg.DisablePruning {
		q.Set("disable_pruning", "1")
	}
	if cfg.DisableResolve {
		q.Set("disable_resolve", "1")
	}
	path := "/cluster/check"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return c.reportRequest(ctx, path, history)
}

// Metrics fetches and parses the /metrics counters.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{Status: resp.StatusCode, Message: resp.Status}
	}
	return obs.ParseMetrics(resp.Body)
}
