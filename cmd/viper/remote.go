package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/obs"
	"viper/internal/server"
)

// runRemote checks a history against a running viperd instead of
// locally: it creates a one-shot session, streams the log into it,
// audits, renders the server's report, and deletes the session. When
// the server is a cluster coordinator, the session round-trip is
// replaced by one POST /cluster/check — the coordinator distributes
// the check across its fleet and the verdict is identical. The exit
// codes match local checking, so scripts cannot tell the modes apart.
// JSON-lines logs are streamed byte-for-byte (decode errors then carry
// the server's structured line/record context, identical to the local
// error); EDN histories and session-log directories are loaded locally
// and re-encoded for transport.
func runRemote(serverURL, path string, opts core.Options, levelName, reportJSON string, stdout, stderr io.Writer) int {
	ctx := context.Background()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		// Headroom over the solve budget for transport and session setup.
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout+30*time.Second)
		defer cancel()
	}
	cl := server.NewClient(serverURL)
	cl.Retry = server.DefaultRetryPolicy()

	var stream io.ReadSeeker
	fi, err := os.Stat(path)
	if err != nil {
		fmt.Fprintf(stderr, "viper: %v\n", err)
		return exitUsage
	}
	if fi.IsDir() || strings.HasSuffix(path, ".edn") {
		h, err := loadHistory(path)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		var buf bytes.Buffer
		if err := histio.Encode(&buf, h); err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		stream = bytes.NewReader(buf.Bytes())
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		stream = f
	}

	sessionCfg := server.SessionConfig{
		Name:           "cli",
		Level:          levelName,
		ClockDriftNS:   int64(opts.ClockDrift),
		Parallelism:    opts.Parallelism,
		InitialK:       opts.InitialK,
		DisablePruning: opts.DisablePruning,
		DisableResolve: opts.DisableResolve,
	}

	var doc *obs.ReportDoc
	if health, err := cl.Health(ctx); err == nil && health.Role == "coordinator" {
		doc, err = cl.ClusterCheck(ctx, stream, sessionCfg)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
	} else {
		info, err := cl.CreateSession(ctx, sessionCfg)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		defer cl.DeleteSession(context.Background(), info.ID)

		if _, err := cl.Append(ctx, info.ID, stream, true); err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		doc, err = cl.Audit(ctx, info.ID)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
	}

	quiet := reportJSON == "-"
	if !quiet {
		fmt.Fprintf(stdout, "%s @ %s: %d txns (%d aborted), %d sessions, level %s\n",
			path, serverURL, doc.History.Txns, doc.History.Aborted, doc.History.Sessions, doc.Level)
		if cl := doc.Cluster; cl != nil {
			fmt.Fprintf(stdout, "distributed by %s over %d workers: %d shards, %d cross-shard edges, %d cross-shard constraints\n",
				cl.Coordinator, cl.Workers, len(cl.Shards), cl.CrossShardEdges, cl.CrossShardConstraints)
		}
		if doc.Violation != "" {
			fmt.Fprintf(stdout, "reject (validation): %s\n", doc.Violation)
		} else {
			fmt.Fprintf(stdout, "verdict: %s\n", doc.Outcome)
		}
		if len(doc.KnownCycle) > 0 {
			printCycle(stdout, doc.KnownCycle)
		}
	}
	if reportJSON != "" {
		if err := writeOut(reportJSON, stdout, doc.Encode); err != nil {
			fmt.Fprintf(stderr, "viper: writing report: %v\n", err)
			return exitUsage
		}
	}

	switch doc.Outcome {
	case core.Accept.String():
		return exitAccept
	case core.Reject.String():
		return exitReject
	default:
		return exitTimeout
	}
}
