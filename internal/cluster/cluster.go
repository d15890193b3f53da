// Package cluster turns viperd daemons into a fleet: one coordinator
// and any number of workers, joined over the same HTTP surface the
// daemon already serves.
//
// Two independent capabilities share the membership machinery:
//
//   - Session routing (proxy.go): the coordinator places each checking
//     session on a worker via a consistent-hash ring and transparently
//     proxies the session's stream and audits there, so single-session
//     throughput scales horizontally with zero client or checker
//     changes.
//
//   - Sharded single-history checking (coordinator.go, worker.go): POST
//     /cluster/check splits one huge history by key range across the
//     fleet; each worker records its shard's polygraph emissions with
//     the same session indexer and per-key record pass every single-node
//     check uses and ships back a compact digest of its per-key records;
//     the coordinator assembles all shards' records exactly as a single
//     node assembles its own — byte-identical polygraph, so the verdict
//     is too — and solves once.
//     Jobs and digests travel in one binary codec (wire.go); a shard
//     no worker records is recorded on the coordinator itself.
//
// Membership is push-join (workers announce themselves and re-announce
// periodically) plus pull-health (the coordinator heartbeats every
// member's /healthz?probe=ready and routes around nodes that miss too
// many probes). There is no consensus: the coordinator is the single
// source of truth for the member set, and a coordinator restart
// recovers membership from the workers' next re-announcements.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"time"

	"viper/internal/server"
)

// Config parametrizes both roles; the zero value is usable.
type Config struct {
	// NodeName identifies this node in the fleet (ring placement, metrics,
	// shard attribution). Letters, digits, '-', '_', '.'; default "node".
	NodeName string
	// AdvertiseURL is the base URL peers reach this node at
	// (e.g. "http://10.0.0.3:7457"). Workers must set it (cmd/viperd
	// derives it from the listener when unset).
	AdvertiseURL string
	// VNodes is the ring's virtual-node count per member; default 64.
	VNodes int
	// HeartbeatInterval is the coordinator's probe period and the base of
	// the workers' re-announce period; default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatMisses marks a member unhealthy after this many consecutive
	// failed probes; default 3. A later successful probe restores it.
	HeartbeatMisses int
	// ShardRetries bounds how many distinct nodes a shard is attempted on
	// before the coordinator computes it locally; default 2.
	ShardRetries int
	// MinShardOps floors the per-shard operation count when the
	// coordinator partitions a history for distributed checking: fewer
	// shards are cut when the history is small, so near-empty slices
	// don't pay fixed per-dispatch overhead (HTTP round trip, slice
	// validation, digest framing) for no recording work. Default 40000;
	// negative disables the floor (always one shard per worker).
	MinShardOps int
	// Logger receives membership and dispatch events; nil discards them.
	Logger *log.Logger
}

var nodeNameRe = regexp.MustCompile(`^[a-zA-Z0-9._-]+$`)

func (c Config) withDefaults() (Config, error) {
	if c.NodeName == "" {
		c.NodeName = "node"
	}
	if !nodeNameRe.MatchString(c.NodeName) {
		return c, fmt.Errorf("cluster: node name %q (want letters, digits, '.', '_', '-')", c.NodeName)
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.ShardRetries <= 0 {
		c.ShardRetries = 2
	}
	if c.MinShardOps == 0 {
		c.MinShardOps = 40000
	}
	if c.MinShardOps < 0 {
		c.MinShardOps = 0
	}
	return c, nil
}

func (c Config) logf(format string, args ...any) {
	if c.Logger != nil {
		c.Logger.Printf(format, args...)
	}
}

// JoinRequest is the POST /cluster/join body a worker announces itself
// with. Joins are idempotent: re-announcing refreshes the entry (and
// lets a restarted coordinator rebuild its member set).
type JoinRequest struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Version string `json:"version"`
}

// JoinResponse acknowledges a join.
type JoinResponse struct {
	Coordinator string `json:"coordinator"`
	Version     string `json:"version"`
	// HeartbeatNS tells the worker the coordinator's probe period, so its
	// re-announce loop can pace itself accordingly.
	HeartbeatNS int64 `json:"heartbeat_ns"`
}

// ---- shared HTTP plumbing ----

// admissionStatus maps the server's admission errors onto the statuses
// session audits use, so clients (and their retry policies) see one
// uniform refusal surface.
func admissionStatus(w http.ResponseWriter, err error) {
	switch err {
	case server.ErrSaturated:
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusTooManyRequests, err)
	case server.ErrShuttingDown:
		server.WriteError(w, http.StatusServiceUnavailable, err)
	default:
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("canceled while queued: %v", err))
	}
}

// postJSON POSTs body (which must be replayable for retries) and
// decodes a JSON response into out, retrying 429/503 under policy.
// Non-2xx responses come back as *server.APIError.
func postJSON(ctx context.Context, hc *http.Client, url string, body io.ReadSeeker, contentType string, out any, policy server.RetryPolicy) error {
	return policy.Do(ctx, body, func() error { return postJSONOnce(ctx, hc, url, body, contentType, out) })
}

// apiErrorFrom is the daemon's one decoder of non-2xx responses.
var apiErrorFrom = server.APIErrorFrom

func postJSONOnce(ctx context.Context, hc *http.Client, url string, body io.Reader, contentType string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiErrorFrom(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
