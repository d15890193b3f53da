package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"viper/internal/cluster"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/server"
	"viper/internal/workload"
)

// fleet is an in-process coordinator-plus-workers cluster on loopback
// listeners, sized for the ablation below.
type fleet struct {
	url   string
	stops []func()
}

func (f *fleet) stop() {
	// Reverse order: workers before the coordinator they announce to.
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

func startFleet(workers int) (*fleet, error) {
	f := &fleet{}
	node := func(srv *server.Server, h func(http.Handler) http.Handler, closeRole func()) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		go srv.ServeWith(l, h(srv.Handler()))
		f.stops = append(f.stops, func() {
			closeRole()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return "http://" + l.Addr().String(), nil
	}

	csrv := server.New(server.Config{Role: "coordinator", IdleTTL: -1})
	coord, err := cluster.NewCoordinator(csrv, cluster.Config{NodeName: "bench-coord"})
	if err != nil {
		return nil, err
	}
	f.url, err = node(csrv, coord.Handler, coord.Close)
	if err != nil {
		coord.Close()
		return f, err
	}

	for i := 0; i < workers; i++ {
		wsrv := server.New(server.Config{Role: "worker", IdleTTL: -1})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		wk, err := cluster.NewWorker(wsrv, cluster.Config{
			NodeName:     fmt.Sprintf("bench-w%d", i),
			AdvertiseURL: "http://" + l.Addr().String(),
		})
		if err != nil {
			return f, err
		}
		go wsrv.ServeWith(l, wk.Handler(wsrv.Handler()))
		f.stops = append(f.stops, func() {
			wk.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			wsrv.Shutdown(ctx)
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = wk.Join(ctx, f.url)
		cancel()
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// Cluster is the distributed-checking ablation (not a paper figure — it
// tracks this repo's viperd cluster mode): one BlindW-RW history checked
// through POST /cluster/check on fleets of 1, 2, and 4 workers, each
// worker recording its key shards with a single construction thread so
// the fleet size is the only parallelism. Wall-clock covers the whole
// request — slicing, shipping, remote recording, merge, and the one
// final solve; the solve is sequential and identical across fleet
// sizes, so the scaling shows in the recording-bound portion. Every
// verdict is compared against an in-process single-node check of the
// same history; divergence is an error, not a row.
func Cluster(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "cluster",
		Title:  "distributed sharded checking (seconds end-to-end; BlindW-RW)",
		Header: []string{"history", "#txns", "workers", "wall(s)", "single-node(s)", "shards", "wire(MB)", "cross-edges", "cross-cons", "verdict"},
	}
	for _, size := range cfg.sizes([]int{2000, 10000, 20000}) {
		h, err := genHistory(workload.NewBlindWRW(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		var stream bytes.Buffer
		if err := histio.Encode(&stream, h); err != nil {
			return nil, err
		}

		soloStart := time.Now()
		want := core.CheckHistory(h, core.Options{Level: core.AdyaSI, Parallelism: 1})
		solo := time.Since(soloStart)

		for _, workers := range []int{1, 2, 4} {
			f, err := startFleet(workers)
			if err != nil {
				f.stop()
				return nil, err
			}
			cl := server.NewClient(f.url)
			cl.Retry = server.DefaultRetryPolicy()
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout()+time.Minute)
			start := time.Now()
			doc, err := cl.ClusterCheck(ctx, bytes.NewReader(stream.Bytes()),
				server.SessionConfig{Level: "si", Parallelism: 1})
			wall := time.Since(start)
			cancel()
			f.stop()
			if err != nil {
				return nil, fmt.Errorf("cluster check (%d txns, %d workers): %w", size, workers, err)
			}
			if doc.Outcome != want.Outcome.String() {
				return nil, fmt.Errorf("verdict divergence at %d txns, %d workers: cluster %q, single-node %q",
					size, workers, doc.Outcome, want.Outcome)
			}
			if doc.Cluster == nil {
				return nil, fmt.Errorf("no cluster section at %d txns, %d workers", size, workers)
			}
			t.Rows = append(t.Rows, []string{
				"blindw-rw", fmt.Sprint(size), fmt.Sprint(workers),
				secs(wall), secs(solo),
				fmt.Sprint(len(doc.Cluster.Shards)),
				fmt.Sprintf("%.1f", float64(doc.Cluster.WireBytesOut+doc.Cluster.WireBytesIn)/(1<<20)),
				fmt.Sprint(doc.Cluster.CrossShardEdges),
				fmt.Sprint(doc.Cluster.CrossShardConstraints),
				doc.Outcome,
			})
		}
	}
	return t, nil
}
