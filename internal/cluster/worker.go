package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/core"
	"viper/internal/server"
	"viper/internal/version"
)

// Worker is a fleet member: an ordinary viperd that additionally
// answers POST /cluster/shard (record one key-sliced history) and
// announces itself to a coordinator. Everything else — sessions,
// audits, health — is the embedded server's, untouched.
type Worker struct {
	srv   *server.Server
	cfg   Config
	httpc *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	looping  atomic.Bool
}

// NewWorker wraps srv with the worker role. Call Join to start
// announcing, Handler to mount the shard endpoint, Close to stop the
// announce loop (before srv.Shutdown).
func NewWorker(srv *server.Server, cfg Config) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.AdvertiseURL == "" {
		return nil, fmt.Errorf("cluster: worker needs an advertise URL")
	}
	return &Worker{
		srv:   srv,
		cfg:   cfg,
		httpc: &http.Client{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Handler mounts the worker's cluster endpoint in front of next (the
// server's handler).
func (w *Worker) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/shard", w.handleShard)
	mux.Handle("/", next)
	return mux
}

// Join announces the worker to the coordinator and starts the
// re-announce loop: joins are idempotent, and periodic re-announcement
// is what lets a restarted coordinator rebuild its member set without
// any persistent state. The initial announcement is retried under the
// default policy; its failure is returned so cmd/viperd can refuse to
// start against a dead coordinator.
func (w *Worker) Join(ctx context.Context, coordinatorURL string) error {
	if err := w.announce(ctx, coordinatorURL); err != nil {
		return fmt.Errorf("cluster: joining %s: %w", coordinatorURL, err)
	}
	w.cfg.logf("cluster: joined coordinator %s as %q (%s)", coordinatorURL, w.cfg.NodeName, w.cfg.AdvertiseURL)
	w.looping.Store(true)
	go w.announceLoop(coordinatorURL)
	return nil
}

// Close stops the announce loop (when Join started one) and drops
// pooled peer connections.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	if w.looping.Load() {
		<-w.done
	}
	w.httpc.CloseIdleConnections()
}

func (w *Worker) announce(ctx context.Context, coordinatorURL string) error {
	buf, err := json.Marshal(JoinRequest{Name: w.cfg.NodeName, URL: w.cfg.AdvertiseURL, Version: version.Version})
	if err != nil {
		return err
	}
	var resp JoinResponse
	return postJSON(ctx, w.httpc, coordinatorURL+"/cluster/join",
		bytes.NewReader(buf), "application/json", &resp, server.DefaultRetryPolicy())
}

// announceLoop re-announces every few heartbeats until Close. Failures
// are logged and retried next tick — the coordinator's health probes
// govern routing in the meantime.
func (w *Worker) announceLoop(coordinatorURL string) {
	defer close(w.done)
	t := time.NewTicker(4 * w.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), 4*w.cfg.HeartbeatInterval)
			if err := w.announce(ctx, coordinatorURL); err != nil {
				w.cfg.logf("cluster: re-announce to %s failed: %v", coordinatorURL, err)
			}
			cancel()
		}
	}
}

// handleShard records one key-sliced history and streams the digest
// back record by record, so the coordinator decodes early records while
// later keys still record. The job must be a binary shard job
// (wire.go); any other Content-Type gets 415. The work runs through the
// server's admission gate exactly like a session audit, so shard jobs
// respect the node's capacity and are drained by Shutdown.
func (w *Worker) handleShard(rw http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); !strings.HasPrefix(ct, shardContentTypeV1) {
		server.WriteError(rw, http.StatusUnsupportedMediaType,
			fmt.Errorf("shard job Content-Type %q, want %s", ct, shardContentTypeV1))
		return
	}
	release, err := w.srv.AdmitAudit(req.Context())
	if err != nil {
		w.srv.Metrics().Add("viperd_cluster_shard_rejects_total", 1)
		admissionStatus(rw, err)
		return
	}
	defer release()

	cr := &countingReader{r: req.Body}
	opts, h, keys, err := decodeShardJob(bufio.NewReaderSize(cr, 64<<10))
	if err != nil {
		server.WriteError(rw, http.StatusBadRequest, err)
		return
	}
	if !slices.Equal(h.Keys(), keys) {
		server.WriteError(rw, http.StatusBadRequest,
			fmt.Errorf("shard slice's written keys disagree with the job's key table (%d vs %d keys)", len(h.Keys()), len(keys)))
		return
	}

	mx := w.srv.Metrics()
	mx.Add("viperd_cluster_wire_bytes_total", cr.n)
	mx.Add("viperd_cluster_wire_bytes_in_total", cr.n)

	// Stream the digest: each record goes on the wire as soon as the
	// recording pass completes its key (and every key before it), with
	// an explicit flush every ~64 KiB so the coordinator's decode
	// overlaps the rest of the recording.
	rw.Header().Set("Content-Type", digestContentTypeV1)
	rw.WriteHeader(http.StatusOK)
	cw := &countingWriter{w: rw}
	flusher, _ := rw.(http.Flusher)
	enc := newDigestEncoder(cw, w.cfg.NodeName)
	err = core.BuildShardRecordsOrdered(h, opts, h.Keys(), func(i int, rec *core.KeyRecord) error {
		if err := enc.record(rec); err != nil {
			return err
		}
		if flusher != nil && enc.buffered() >= 64<<10 {
			if err := enc.flush(); err != nil {
				return err
			}
			flusher.Flush()
		}
		return nil
	})
	if err == nil {
		err = enc.close()
	}
	if err != nil {
		// Headers are gone; all we can do is cut the stream short. The
		// coordinator's decoder sees a truncated digest and retries or
		// falls back.
		w.cfg.logf("cluster: streaming shard digest failed: %v", err)
		w.srv.Metrics().Add("viperd_cluster_shard_stream_errors_total", 1)
		return
	}
	mx.Add("viperd_cluster_shards_recorded_total", 1)
	mx.Add("viperd_cluster_shard_keys_total", int64(len(h.Keys())))
	mx.Add("viperd_cluster_wire_bytes_total", cw.n)
	mx.Add("viperd_cluster_wire_bytes_out_total", cw.n)
}
