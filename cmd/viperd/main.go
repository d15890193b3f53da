// Command viperd serves viper's snapshot-isolation checking as a
// service: clients create sessions, stream history logs into them, and
// request audits over HTTP (see internal/server for the API, and the
// README's "Running viperd" walkthrough).
//
// Usage:
//
//	viperd [-addr 127.0.0.1:7457] [-max-sessions 64] [-max-session-ops N]
//	       [-idle-ttl 15m] [-audit-timeout 60s] [-workers N] [-queue-depth N]
//	       [-checkpoint-every N] [-max-live-ops N] [-quiet]
//
// Cluster mode (see internal/cluster): start one coordinator and any
// number of workers joined to it.
//
//	viperd -coordinator [-node-name c1] [-vnodes 64] [-heartbeat 1s]
//	       [-min-shard-ops N] ...
//	viperd -join http://coordinator:7457 [-advertise http://me:7458] ...
//
// The coordinator routes sessions across the fleet and serves POST
// /cluster/check (distributed single-history checking); workers answer
// shard jobs. Both keep serving the ordinary session API.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight audits
// drain (bounded by -shutdown-grace), then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viper/internal/cluster"
	"viper/internal/server"
	"viper/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it serves until ctx is canceled, then
// shuts down gracefully. Exit codes: 0 clean shutdown, 2 usage/startup
// failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viperd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:7457", "listen address (host:port)")
		maxSessions   = fs.Int("max-sessions", 0, "max live sessions (default 64)")
		maxSessionOps = fs.Int("max-session-ops", 0, "per-session op quota (default 1048576)")
		idleTTL       = fs.Duration("idle-ttl", 0, "evict sessions idle this long (default 15m, <0 disables)")
		auditTimeout  = fs.Duration("audit-timeout", 0, "per-audit deadline (default 60s, <0 unbounded)")
		workers       = fs.Int("workers", 0, "concurrent audit workers (default GOMAXPROCS)")
		queueDepth    = fs.Int("queue-depth", 0, "audits allowed to queue before 429 (default 2*workers)")
		cpEvery       = fs.Int("checkpoint-every", 0, "default session checkpoint policy: compact after accepting audits once the live window holds this many txns (0 disables)")
		maxLiveOps    = fs.Int("max-live-ops", 0, "default session checkpoint policy: compact once the live window holds this many ops (0 disables)")
		shutdownGrace = fs.Duration("shutdown-grace", 30*time.Second, "max time to drain in-flight audits on shutdown")
		quiet         = fs.Bool("quiet", false, "suppress per-request logging")
		showVersion   = fs.Bool("version", false, "print version and exit")

		coordinator = fs.Bool("coordinator", false, "run as cluster coordinator (route sessions and distribute /cluster/check)")
		join        = fs.String("join", "", "coordinator URL to join as a worker (e.g. http://host:7457)")
		advertise   = fs.String("advertise", "", "base URL peers reach this node at (default http://<listen-addr>)")
		nodeName    = fs.String("node-name", "", "cluster node name (default derived from the listen address)")
		vnodes      = fs.Int("vnodes", 0, "consistent-hash virtual nodes per member (default 64)")
		heartbeat   = fs.Duration("heartbeat", 0, "cluster heartbeat interval (default 1s)")
		hbMisses    = fs.Int("heartbeat-misses", 0, "missed heartbeats before a node is unhealthy (default 3)")
		minShardOps = fs.Int("min-shard-ops", 0, "coordinator: min operations per shard before cutting another (default 40000, <0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintf(stdout, "viperd %s\n", version.Version)
		return 0
	}
	if *coordinator && *join != "" {
		fmt.Fprintf(stderr, "viperd: -coordinator and -join are mutually exclusive\n")
		return 2
	}

	logger := log.New(stderr, "viperd: ", log.LstdFlags)
	cfg := server.Config{
		MaxSessions:     *maxSessions,
		MaxSessionOps:   *maxSessionOps,
		IdleTTL:         *idleTTL,
		AuditTimeout:    *auditTimeout,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CheckpointEvery: *cpEvery,
		MaxLiveOps:      *maxLiveOps,
		Logger:          logger,
	}
	switch {
	case *coordinator:
		cfg.Role = "coordinator"
	case *join != "":
		cfg.Role = "worker"
	}
	if *quiet {
		cfg.Logger = nil
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "viperd: listen: %v\n", err)
		return 2
	}
	srv := server.New(cfg)
	// Parseable by tests and scripts (the port may have been :0).
	fmt.Fprintf(stdout, "viperd %s listening on http://%s\n", version.Version, l.Addr())

	ccfg := cluster.Config{
		NodeName:          *nodeName,
		AdvertiseURL:      *advertise,
		VNodes:            *vnodes,
		HeartbeatInterval: *heartbeat,
		HeartbeatMisses:   *hbMisses,
		MinShardOps:       *minShardOps,
		Logger:            cfg.Logger,
	}
	if ccfg.NodeName == "" {
		ccfg.NodeName = "viperd-" + sanitizeAddr(l.Addr().String())
	}
	if ccfg.AdvertiseURL == "" {
		ccfg.AdvertiseURL = "http://" + l.Addr().String()
	}

	handler := srv.Handler()
	var closeCluster func()
	switch {
	case *coordinator:
		coord, err := cluster.NewCoordinator(srv, ccfg)
		if err != nil {
			fmt.Fprintf(stderr, "viperd: %v\n", err)
			l.Close()
			return 2
		}
		handler = coord.Handler(handler)
		closeCluster = coord.Close
	case *join != "":
		wk, err := cluster.NewWorker(srv, ccfg)
		if err != nil {
			fmt.Fprintf(stderr, "viperd: %v\n", err)
			l.Close()
			return 2
		}
		handler = wk.Handler(handler)
		jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = wk.Join(jctx, *join)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "viperd: %v\n", err)
			l.Close()
			return 2
		}
		closeCluster = wk.Close
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ServeWith(l, handler) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "viperd: serve: %v\n", err)
		if closeCluster != nil {
			closeCluster()
		}
		return 2
	case <-ctx.Done():
	}

	logger.Printf("shutting down (draining in-flight audits, grace %s)", *shutdownGrace)
	if closeCluster != nil {
		closeCluster()
	}
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "viperd: shutdown: %v\n", err)
		return 2
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "viperd: serve: %v\n", err)
		return 2
	}
	logger.Printf("shutdown complete")
	return 0
}

// sanitizeAddr maps a host:port onto the cluster node-name charset.
func sanitizeAddr(addr string) string {
	out := make([]byte, 0, len(addr))
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
