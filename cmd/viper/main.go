// Command viper checks a recorded history (a JSON-lines log produced by
// the history collectors / cmd/vipergen) against a snapshot-isolation
// variant and prints the verdict, statistics, and — when the rejection is
// visible in the known graph — a counterexample cycle.
//
// Usage:
//
//	viper [flags] history.jsonl
//
// With -follow the log is tailed as it grows and re-audited incrementally
// (every -every transactions or -interval, whichever comes first),
// streaming one verdict line per audit.
//
// With -matrix the history is checked against the whole isolation-level
// lattice in one pass — read-committed, read-atomic, causal, adya-si,
// gsi, serializability — reporting every level's verdict and the weakest
// violated level; -level is ignored.
//
// Exit status: 0 accept, 1 reject, 2 usage/IO error, 3 timeout — scripts
// can branch on the verdict without parsing output. Under -matrix the
// verdict aggregates the lattice: 0 every level accepts, 1 at least one
// level rejects, 3 no level rejects but at least one times out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/jepsen"
	"viper/internal/obs"
	"viper/internal/ssg"
	"viper/internal/version"
	"viper/internal/viz"
)

// Process exit codes. Accept/reject/timeout mirror the checker verdicts;
// usage covers flag, file, and decode errors.
const (
	exitAccept  = 0
	exitReject  = 1
	exitUsage   = 2
	exitTimeout = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injected arguments and streams, for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: viper [flags] history.jsonl|history.edn|session-log-dir")
		fmt.Fprintln(stderr, "exit codes: 0 accept, 1 reject, 2 usage/IO error, 3 timeout")
		fs.PrintDefaults()
	}
	var (
		levelFlag   = fs.String("level", "adya-si", "isolation level: adya-si | gsi | strong-session-si | strong-si | serializability | read-committed | read-atomic | causal")
		matrixFlag  = fs.Bool("matrix", false, "check the whole isolation-level lattice in one pass and report every level's verdict (-level is ignored)")
		drift       = fs.Duration("drift", 0, "bounded clock drift between client collectors (for gsi / strong-si / strong-session-si)")
		timeout     = fs.Duration("timeout", 0, "checking time budget (0 = unbounded)")
		noPruning   = fs.Bool("no-pruning", false, "disable heuristic pruning (§3.5): check with one exact pass over every constraint of the full polygraph")
		resolve     = fs.Bool("resolve", true, "constraint resolution against the known-graph closure: the pre-solve pass, and the evidence pass naming a refuted reject's cycle")
		tsFastPath  = fs.String("ts-fastpath", "auto", "timestamp-assisted fast path: auto (on when usable timestamps are present) | on | off")
		noCombine   = fs.Bool("no-combine", false, "disable combining writes")
		noCoalesce  = fs.Bool("no-coalesce", false, "disable coalescing constraints")
		initialK    = fs.Int("k", 0, "initial heuristic pruning distance, also the window stage's radius (0 = default 128)")
		parallel    = fs.Int("parallel", 0, "polygraph construction workers (0 = GOMAXPROCS, 1 = record every key on one goroutine)")
		verbose     = fs.Bool("v", false, "print detailed statistics")
		dotPath     = fs.String("dot", "", "write the BC-polygraph (with any counterexample cycle highlighted) as Graphviz DOT to this path")
		follow      = fs.Bool("follow", false, "tail the log as it grows, re-auditing incrementally and streaming verdicts")
		every       = fs.Int("every", 1000, "with -follow: re-audit after this many new transactions")
		interval    = fs.Duration("interval", time.Second, "with -follow: re-audit at least this often while new transactions arrive")
		idleExit    = fs.Duration("idle-exit", 0, "with -follow: exit with the last verdict after this long without new data (0 = follow forever)")
		cpEvery     = fs.Int("checkpoint-every", 0, "with -follow: compact the checked prefix into a certificate after accepting audits once the live window holds this many txns (0 = unbounded)")
		maxLiveOps  = fs.Int("max-live-ops", 0, "with -follow: compact once the live window holds this many ops (0 = unbounded)")
		reportJSON  = fs.String("report-json", "", "write the versioned machine-readable report as JSON to this path (\"-\" = stdout, suppressing the human-readable output)")
		traceOut    = fs.String("trace-out", "", "record phase-scoped spans and write the trace as JSON to this path (\"-\" = stdout)")
		progress    = fs.Duration("progress", 0, "stream progress lines to stderr at this interval while checking (0 = off)")
		serverURL   = fs.String("server", "", "check remotely against a running viperd at this base URL (e.g. http://127.0.0.1:7457) instead of locally")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *showVersion {
		fmt.Fprintf(stdout, "viper %s\n", version.Version)
		return exitAccept
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitUsage
	}

	level, ok := core.ParseLevel(*levelFlag)
	if !ok {
		fmt.Fprintf(stderr, "viper: unknown level %q\n", *levelFlag)
		return exitUsage
	}
	// "auto" and "on" both enable the fast path — it engages exactly when
	// the history's timestamps are usable, and forcing it onto a history
	// without timestamps has nothing to act on; "off" is the ablation knob.
	switch *tsFastPath {
	case "auto", "on", "off":
	default:
		fmt.Fprintf(stderr, "viper: -ts-fastpath must be auto, on, or off (got %q)\n", *tsFastPath)
		return exitUsage
	}

	opts := core.Options{
		Level:                level,
		ClockDrift:           *drift,
		Timeout:              *timeout,
		DisablePruning:       *noPruning,
		DisableResolve:       !*resolve,
		DisableTSFastPath:    *tsFastPath == "off",
		DisableCombineWrites: *noCombine,
		DisableCoalesce:      *noCoalesce,
		InitialK:             *initialK,
		Parallelism:          *parallel,
	}
	if err := opts.CheckKnobs("-parallel", "-k", "-drift"); err != nil {
		fmt.Fprintf(stderr, "viper: %v\n", err)
		return exitUsage
	}
	if *reportJSON != "" || *traceOut != "" {
		opts.Tracer = obs.NewTracer()
	}
	if *progress > 0 {
		opts.ProgressInterval = *progress
		opts.Progress = func(s obs.Snapshot) { fmt.Fprintln(stderr, s) }
	}
	// With the report on stdout, the human-readable output is suppressed so
	// the stream stays parseable.
	quiet := *reportJSON == "-"

	if *matrixFlag && (*follow || *serverURL != "" || *dotPath != "") {
		fmt.Fprintln(stderr, "viper: -matrix is a local batch mode (not combinable with -follow, -server, or -dot)")
		return exitUsage
	}

	if *serverURL != "" {
		if *follow {
			fmt.Fprintln(stderr, "viper: -follow and -server are mutually exclusive")
			return exitUsage
		}
		return runRemote(*serverURL, fs.Arg(0), opts, *levelFlag, *reportJSON, stdout, stderr)
	}

	if *follow {
		policy := viper.CheckpointPolicy{EveryTxns: *cpEvery, MaxLiveOps: *maxLiveOps}
		return runFollow(fs.Arg(0), opts, *every, *interval, *idleExit, policy,
			*reportJSON, *traceOut, stdout, stderr)
	}

	start := time.Now()
	parseReg := opts.Tracer.Start("parse")
	h, err := loadHistory(fs.Arg(0))
	parseReg.End()
	if err != nil {
		var verr *history.ValidationError
		if errors.As(err, &verr) {
			if !quiet {
				fmt.Fprintf(stdout, "reject (validation): %v\n", verr)
			}
			var doc *obs.ReportDoc
			if *matrixFlag {
				doc = core.BuildMatrixDoc("viper", fs.Arg(0), nil, time.Since(start), nil, verr, opts, opts.Tracer)
			} else {
				doc = buildReportDoc(fs.Arg(0), nil, time.Since(start), nil, verr, opts, opts.Tracer)
			}
			emitObs(*reportJSON, *traceOut, doc, stdout, stderr)
			return exitReject
		}
		fmt.Fprintf(stderr, "viper: %v\n", err)
		return exitUsage
	}
	parse := time.Since(start)

	if *matrixFlag {
		return runMatrix(fs.Arg(0), h, parse, opts, *reportJSON, *traceOut, quiet, stdout, stderr)
	}

	rep := core.CheckHistory(h, opts)

	if !quiet {
		st := h.ComputeStats()
		fmt.Fprintf(stdout, "%s: %d txns (%d aborted), %d sessions, level %s\n",
			fs.Arg(0), st.Txns, st.Aborted, st.Sessions, level)
		fmt.Fprintf(stdout, "verdict: %s\n", rep.Outcome)
		construct := fmt.Sprintf("construct %.3fs", rep.Phases.Construct.Seconds())
		if rep.ConstructWorkers > 1 {
			construct += fmt.Sprintf(" (cpu %.3fs, %d workers)",
				rep.Phases.ConstructCPU.Seconds(), rep.ConstructWorkers)
		}
		fmt.Fprintf(stdout, "time: parse %.3fs, %s, encode %.3fs, resolve %.3fs, solve %.3fs\n",
			parse.Seconds(), construct, rep.Phases.Encode.Seconds(),
			rep.Phases.Resolve.Seconds(), rep.Phases.Solve.Seconds())
	}

	if *verbose && !quiet {
		// The counts the check carries: on input without a timestamp
		// stage, the constraints of the window stage's polygraph
		// (internal/core's window.go), often a fraction of the full one's.
		fmt.Fprintf(stdout, "polygraph: %d nodes, %d known edges, %d constraints checked\n",
			rep.Nodes, rep.KnownEdges, rep.Constraints)
		fmt.Fprintf(stdout, "resolve: %d constraints resolved, %d edges forced\n",
			rep.ResolvedConstraints, rep.ForcedEdges)
		if rep.TSUnusable != "" {
			fmt.Fprintf(stdout, "ts-fastpath: timestamps unusable (%s)\n", rep.TSUnusable)
		} else if rep.TSDecided > 0 || rep.TSResidual > 0 {
			fmt.Fprintf(stdout, "ts-fastpath: %d constraints decided, %d residual (%.3fs)\n",
				rep.TSDecided, rep.TSResidual, rep.Phases.TSOrder.Seconds())
		}
		fmt.Fprintf(stdout, "pruning: k=%d, %d constraints pruned, %d heuristic edges, %d retries\n",
			rep.FinalK, rep.PrunedConstraints, rep.HeuristicEdges, rep.Retries)
		fmt.Fprintf(stdout, "solver: %d vars, %d conflicts, %d decisions, %d propagations, %d theory conflicts\n",
			rep.Solver.Vars, rep.Solver.Conflicts, rep.Solver.Decisions,
			rep.Solver.Propagations, rep.Solver.TheoryConfl)
	}

	if rep.Outcome == core.Reject && !quiet {
		// When no cycle exists among the known edges alone, every write
		// order fails deeper in the search; printCounterexample then shows
		// best-effort evidence under the timestamp-plausible write order.
		printCounterexample(stdout, h, rep, opts)
	}

	if *reportJSON != "" || *traceOut != "" {
		doc := buildReportDoc(fs.Arg(0), h, parse, rep, nil, opts, opts.Tracer)
		if !emitObs(*reportJSON, *traceOut, doc, stdout, stderr) {
			return exitUsage
		}
	}

	if *dotPath != "" {
		pg := core.Build(h, opts)
		f, err := os.Create(*dotPath)
		if err != nil {
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		if err := viz.WritePolygraph(f, pg, rep.KnownCycle); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
		f.Close()
		fmt.Fprintf(stdout, "polygraph written to %s\n", *dotPath)
	}

	switch rep.Outcome {
	case core.Accept:
		return exitAccept
	case core.Reject:
		return exitReject
	default:
		return exitTimeout
	}
}

// runMatrix checks the loaded history against the whole isolation-level
// lattice in one pass and prints the verdict matrix: one row per level,
// derived verdicts attributed to the level that implied them, rejecting
// rows annotated with their evidence.
func runMatrix(path string, h *history.History, parse time.Duration, opts core.Options, reportJSON, traceOut string, quiet bool, stdout, stderr io.Writer) int {
	mr := core.CheckMatrixHistory(h, opts)
	agg := mr.Outcome()

	if !quiet {
		st := h.ComputeStats()
		fmt.Fprintf(stdout, "%s: %d txns (%d aborted), %d sessions, matrix\n",
			path, st.Txns, st.Aborted, st.Sessions)
		fmt.Fprintf(stdout, "verdict: %s\n", agg)
		if mr.Violated {
			fmt.Fprintf(stdout, "weakest violated: %s\n", mr.WeakestViolated)
		}
		if mr.Satisfied {
			fmt.Fprintf(stdout, "strongest satisfied: %s\n", mr.StrongestSatisfied)
		}
		for i := range mr.Verdicts {
			v := &mr.Verdicts[i]
			note := ""
			switch {
			case v.Derived:
				note = fmt.Sprintf("  (derived from %s)", v.From)
			case v.Report != nil && v.Report.Anomaly != "":
				note = "  (" + v.Report.Anomaly + ")"
			case v.Report != nil && v.Report.KnownCycle != nil:
				note = fmt.Sprintf("  (counterexample cycle, %d edges)", len(v.Report.KnownCycle))
			}
			fmt.Fprintf(stdout, "  %-16s %s%s\n", v.Level, v.Outcome, note)
		}
		fmt.Fprintf(stdout, "time: parse %.3fs, matrix %.3fs (%d levels checked, %d derived)\n",
			parse.Seconds(), mr.Wall.Seconds(), mr.Checked, len(mr.Verdicts)-mr.Checked)
	}

	if reportJSON != "" || traceOut != "" {
		doc := core.BuildMatrixDoc("viper", path, h, parse, mr, nil, opts, opts.Tracer)
		if !emitObs(reportJSON, traceOut, doc, stdout, stderr) {
			return exitUsage
		}
	}

	switch agg {
	case core.Accept:
		return exitAccept
	case core.Reject:
		return exitReject
	default:
		return exitTimeout
	}
}

// runFollow tails a JSON-lines history log through the streaming decoder,
// feeding an incremental Checker session and re-auditing every `every`
// transactions or `interval`, whichever comes first. One verdict line is
// streamed per audit. A validation failure is transient in a live stream
// (the observed write may simply not have been appended yet) and is
// reported without stopping; a graph-level reject is permanent (the
// checked levels are prefix-closed) and exits immediately with the reject
// code. With idleExit > 0, the process performs a final audit and exits
// with its verdict after that long without new data.
func runFollow(path string, opts core.Options, every int, interval, idleExit time.Duration, policy viper.CheckpointPolicy, reportJSON, traceOut string, stdout, stderr io.Writer) int {
	if every < 1 {
		every = 1
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "viper: %v\n", err)
		return exitUsage
	}
	defer f.Close()

	dec := histio.NewDecoder(f)
	dec.SetTail(true)
	c := viper.NewChecker(opts)
	c.SetCheckpointPolicy(policy)

	poll := interval / 10
	if poll <= 0 || poll > 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}

	pending := 0 // txns appended since the last audit
	lastData := time.Now()
	lastAudit := time.Now()
	start := time.Now()

	// On exit, write the last audit's report document if one was requested.
	var lastRes *viper.Result
	emitFinal := func() {
		if reportJSON == "" && traceOut == "" {
			return
		}
		var rep *core.Report
		var violation error
		if lastRes != nil {
			rep, violation = lastRes.Report, lastRes.Violation
		}
		doc := buildReportDoc(path, c.History(), time.Since(start), rep, violation, opts, opts.Tracer)
		emitObs(reportJSON, traceOut, doc, stdout, stderr)
	}

	audit := func() (int, bool) {
		pending = 0
		lastAudit = time.Now()
		res := c.Audit()
		lastRes = res
		switch {
		case res.Violation != nil:
			// Transient in a live stream: keep following.
			fmt.Fprintf(stdout, "audit %d txns: pending (validation: %v)\n", c.LifetimeLen(), res.Violation)
			return 0, false
		case res.Outcome == viper.Reject:
			fmt.Fprintf(stdout, "audit %d txns: reject\n", c.LifetimeLen())
			printCounterexample(stdout, c.History(), res.Report, opts)
			return exitReject, true
		case res.Outcome == viper.Timeout:
			fmt.Fprintf(stdout, "audit %d txns: timeout\n", c.LifetimeLen())
			return exitTimeout, true
		default:
			fmt.Fprintf(stdout, "audit %d txns: accept (construct %.3fs, solve %.3fs)\n",
				c.LifetimeLen(), res.Report.Phases.Construct.Seconds(), res.Report.Phases.Solve.Seconds())
			if res.CheckpointErr != nil {
				fmt.Fprintf(stderr, "viper: checkpoint skipped: %v\n", res.CheckpointErr)
			} else if res.Compacted > 0 {
				fmt.Fprintf(stdout, "checkpoint: compacted %d txns (%d live, cert %.1fKB)\n",
					res.Compacted, c.Len(), float64(c.Certificate().Bytes)/1024)
			}
			return exitAccept, false
		}
	}

	for {
		tx, err := dec.Next()
		switch {
		case err == nil:
			c.Append(tx)
			pending++
			lastData = time.Now()
			if pending >= every {
				if code, done := audit(); done {
					emitFinal()
					return code
				}
			}
		case err == io.EOF:
			if pending > 0 && time.Since(lastAudit) >= interval {
				if code, done := audit(); done {
					emitFinal()
					return code
				}
			}
			if idleExit > 0 && time.Since(lastData) >= idleExit {
				// The stream is over as far as we are concerned: leave tail
				// mode and drain, so a final record cut off mid-write or a
				// header/record-count mismatch is reported with the same
				// structured context viperd's ingest returns for the same
				// broken stream, instead of being silently ignored.
				dec.SetTail(false)
				if derr := drainComplete(dec, c); derr != nil {
					fmt.Fprintf(stderr, "viper: %v\n", derr)
					return exitUsage
				}
				code, _ := audit()
				emitFinal()
				return code
			}
			time.Sleep(poll)
		default:
			fmt.Fprintf(stderr, "viper: %v\n", err)
			return exitUsage
		}
	}
}

// drainComplete consumes the decoder's remaining complete-stream records
// into the checker. Called after SetTail(false): a buffered partial
// final line and the header's declared-count check both surface here.
func drainComplete(dec *histio.Decoder, c *viper.Checker) error {
	for {
		tx, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.Append(tx)
	}
}

// printCounterexample renders a rejection's evidence (shared by the batch
// and follow paths).
func printCounterexample(stdout io.Writer, h *history.History, rep *core.Report, opts core.Options) {
	if rep.KnownCycle != nil {
		printCycle(stdout, core.RenderCycle(h, rep.KnownCycle, opts))
		return
	}
	vo := ssg.InferFromTimestamps(h)
	if cyc := ssg.Build(h, vo, false).FindForbiddenCycle(); cyc != nil {
		fmt.Fprintln(stdout, "plausible counterexample (under the timestamp-inferred write order):")
		fmt.Fprintf(stdout, "  %s\n", cyc)
	} else {
		fmt.Fprintln(stdout, "no acyclic compatible graph exists (every write order fails)")
	}
}

// printCycle prints a counterexample cycle in the known dependency graph,
// rendered locally or received in a remote report alike.
func printCycle(stdout io.Writer, cycle []obs.CycleEdge) {
	fmt.Fprintln(stdout, "counterexample cycle in the known dependency graph:")
	for _, e := range cycle {
		label := e.Kind
		if e.Key != "" {
			label += fmt.Sprintf("(%s)", e.Key)
		}
		fmt.Fprintf(stdout, "  %s --%s--> %s\n", e.From, label, e.To)
	}
}

// loadHistory reads a single log file (JSON-lines, or a Jepsen EDN
// history when the extension is .edn), or — when the argument is a
// directory — merges the per-session logs inside it (the paper's
// collector layout).
func loadHistory(path string) (*history.History, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return histio.ReadSessionDir(path)
	}
	if strings.HasSuffix(path, ".edn") {
		return jepsen.ParseFile(path)
	}
	return histio.ReadFile(path)
}
