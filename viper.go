// Package viper is a fast black-box snapshot-isolation (SI) checker — a
// from-scratch Go implementation of "Viper: A Fast Snapshot Isolation
// Checker" (EuroSys 2023).
//
// Given a history — the transactions a set of clients sent to a database
// and the values it returned — viper decides, soundly and completely,
// whether the history satisfies snapshot isolation. The database is never
// inspected: everything viper needs is recorded client-side by history
// collectors. Internally the history becomes a BC-polygraph, a dependency
// graph over transaction begin/commit events plus a set of either/or edge
// constraints; the history is SI if and only if some constraint resolution
// makes the graph acyclic (the paper's Theorem 5), which a CDCL SAT solver
// with a native acyclicity theory decides.
//
// # Checking a history
//
//	b := viper.NewHistoryBuilder()
//	s := b.Session()
//	w := s.Txn().Write("x").Commit()
//	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
//	h, err := b.History()
//	...
//	res := viper.Check(h, viper.Options{Level: viper.AdyaSI})
//	fmt.Println(res.Outcome) // accept
//
// Besides vanilla (Adya) SI, the checker supports Generalized SI, Strong
// Session SI, Strong SI (all under a bounded clock-drift assumption for
// their real-time obligations), and Serializability.
//
// # Recording histories
//
// Package-level helpers run workloads against the bundled SI storage
// engine through history collectors (the paper's Figure 1 pipeline), and
// persist/load histories as JSON-lines logs; see RunWorkload, WriteHistory
// and ReadHistory. Real deployments would implement the collector shim
// over their own database client; the recorded format is the same.
package viper

import (
	"context"
	"time"

	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/runner"
	"viper/internal/workload"
)

// Re-exported history model. External users interact with these through
// the viper package; see package history for full documentation.
type (
	// History is a recorded execution: transactions, operations, and the
	// values reads observed.
	History = history.History
	// Txn is one transaction of a history.
	Txn = history.Txn
	// Op is one key operation of a transaction.
	Op = history.Op
	// Version is one (key, write id) entry of a range-query result.
	Version = history.Version
	// Key is a database key.
	Key = history.Key
	// WriteID identifies a written value.
	WriteID = history.WriteID
	// TxnID identifies a transaction within a history.
	TxnID = history.TxnID
	// HistoryBuilder assembles histories programmatically.
	HistoryBuilder = history.Builder
	// SessionBuilder creates transactions within one session of a built
	// history.
	SessionBuilder = history.SessionBuilder
	// TxnBuilder accumulates one transaction's operations.
	TxnBuilder = history.TxnBuilder
	// CommittedTxn is the handle of a finalized built transaction.
	CommittedTxn = history.CommittedTxn
	// ValidationError reports a well-formedness violation (e.g. a read of
	// an aborted write) that makes a history trivially non-SI.
	ValidationError = history.ValidationError
)

// Re-exported checker configuration and results.
type (
	// Options configure a check: the SI variant, clock-drift bound,
	// optimization toggles, and timeout.
	Options = core.Options
	// Level is the isolation level to check.
	Level = core.Level
	// Outcome is accept, reject, or timeout.
	Outcome = core.Outcome
	// Report carries the checker's detailed statistics and phase timings.
	Report = core.Report
	// MatrixReport is the per-level verdict matrix of CheckMatrix /
	// Checker.AuditMatrix: one LevelVerdict per entry of MatrixLevels.
	MatrixReport = core.MatrixReport
	// LevelVerdict is one isolation level's row of a MatrixReport.
	LevelVerdict = core.LevelVerdict
	// Certificate summarizes a session's checkpoint certificate: what a
	// Checker compacted away and what the fence costs to carry.
	Certificate = core.Certificate
)

// MatrixLevels is the verdict matrix's evaluation set, weakest-first:
// ReadCommitted, ReadAtomic, Causal, AdyaSI, GSI, Serializability.
var MatrixLevels = core.MatrixLevels

// Re-exported observability layer (see package obs): live progress
// snapshots via Options.Progress / Checker.Progress, and phase-scoped
// tracing via Options.Tracer.
type (
	// ProgressSnapshot is a point-in-time view of a running check's phase
	// and counters.
	ProgressSnapshot = obs.Snapshot
	// Tracer records phase-scoped spans of a check; attach one via
	// Options.Tracer and export with its Trace method.
	Tracer = obs.Tracer
	// Trace is an exportable span tree.
	Trace = obs.Trace
	// ReportDoc is the versioned machine-readable report document the CLIs
	// emit with -report-json.
	ReportDoc = obs.ReportDoc
)

// NewTracer returns a tracer whose epoch is now, for Options.Tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Isolation levels (the Crooks et al. hierarchy plus Serializability).
const (
	// AdyaSI is vanilla snapshot isolation (logical timestamps).
	AdyaSI = core.AdyaSI
	// GSI is Generalized SI: real-time commits, old snapshots allowed.
	GSI = core.GSI
	// StrongSessionSI adds session order (≡ Prefix-Consistent SI).
	StrongSessionSI = core.StrongSessionSI
	// StrongSI requires the most recent snapshot in real time.
	StrongSI = core.StrongSI
	// Serializability checks Adya serializability.
	Serializability = core.Serializability
	// ReadCommitted checks Adya's PL-2 (polynomial time, no solver).
	ReadCommitted = core.ReadCommitted
	// ReadAtomic checks atomic visibility (polynomial time, no solver).
	ReadAtomic = core.ReadAtomic
	// Causal checks transactional causal consistency (polynomial time, no
	// solver; session guarantees excluded — see the core documentation).
	Causal = core.Causal
)

// Outcomes.
const (
	// Accept: the history satisfies the checked level.
	Accept = core.Accept
	// Reject: it does not.
	Reject = core.Reject
	// Timeout: the time budget expired first.
	Timeout = core.Timeout
)

// Result is the outcome of Check: the verdict plus either a
// validation-level violation or the full graph-checking report.
type Result struct {
	Outcome Outcome
	// Violation is non-nil when the history failed validation (reads of
	// aborted or fabricated writes, program-order violations); such
	// histories are rejected before any graph analysis, matching Figure 4
	// line 32.
	Violation error
	// Report is the detailed checking report (nil if rejection happened at
	// validation).
	Report *Report
	// ParseTime is the time spent loading/validating the history.
	ParseTime time.Duration
	// Compacted is the number of transactions an auto-checkpoint (see
	// Checker.SetCheckpointPolicy) compacted right after this audit;
	// CheckpointErr records why a due auto-checkpoint could not run.
	Compacted     int
	CheckpointErr error
}

// Check validates the history and decides whether it satisfies the
// configured isolation level. It is equivalent to a single-audit Checker
// session over the same transactions (and is implemented as one, through
// core.CheckHistory); use Checker directly when the history grows over
// time and will be audited repeatedly.
func Check(h *History, opts Options) *Result {
	return CheckContext(context.Background(), h, opts)
}

// CheckContext is Check under a cancellation context: ctx's deadline
// bounds checking like Options.Timeout (whichever expires first), and
// canceling ctx interrupts a running solve, returning Outcome Timeout.
func CheckContext(ctx context.Context, h *History, opts Options) *Result {
	start := time.Now()
	if err := validate(h, opts.Tracer); err != nil {
		return &Result{Outcome: Reject, Violation: err, ParseTime: time.Since(start)}
	}
	parse := time.Since(start)
	rep := core.CheckHistoryContext(ctx, h, opts)
	return &Result{Outcome: rep.Outcome, Report: rep, ParseTime: parse}
}

// validate validates h under a "validate" span of tr.
func validate(h *History, tr *Tracer) error {
	defer tr.Start("validate").End()
	return h.Validate()
}

// MatrixResult is the outcome of CheckMatrix: the aggregate verdict plus
// either a validation-level violation or the full per-level matrix.
type MatrixResult struct {
	// Outcome aggregates the matrix: Reject if any level rejected, else
	// Timeout if any level timed out, else Accept.
	Outcome Outcome
	// Violation is non-nil when the history failed validation; such
	// histories are rejected before any level runs and Matrix is nil.
	Violation error
	// Matrix holds every level's verdict, the weakest violated level, and
	// per-level witnesses/counterexamples.
	Matrix *MatrixReport
	// ParseTime is the time spent loading/validating the history.
	ParseTime time.Duration
}

// CheckMatrix validates the history once and decides every MatrixLevels
// verdict over that single ingest — Read Committed through
// Serializability — short-circuiting with lattice monotonicity instead of
// running six independent checks. opts.Level is ignored.
func CheckMatrix(h *History, opts Options) *MatrixResult {
	return CheckMatrixContext(context.Background(), h, opts)
}

// CheckMatrixContext is CheckMatrix under a cancellation context: ctx
// bounds the whole pass, while opts.Timeout budgets each level's check
// separately.
func CheckMatrixContext(ctx context.Context, h *History, opts Options) *MatrixResult {
	start := time.Now()
	if err := h.Validate(); err != nil {
		return &MatrixResult{Outcome: Reject, Violation: err, ParseTime: time.Since(start)}
	}
	parse := time.Since(start)
	mr := core.CheckMatrixContext(ctx, h, opts)
	return &MatrixResult{Outcome: mr.Outcome(), Matrix: mr, ParseTime: parse}
}

// CheckFile loads a history log (see WriteHistory) and checks it.
func CheckFile(path string, opts Options) (*Result, error) {
	start := time.Now()
	h, err := histio.ReadFile(path)
	if err != nil {
		if _, ok := err.(*history.ValidationError); ok {
			return &Result{Outcome: Reject, Violation: err, ParseTime: time.Since(start)}, nil
		}
		return nil, err
	}
	parse := time.Since(start)
	rep := core.CheckHistory(h, opts)
	return &Result{Outcome: rep.Outcome, Report: rep, ParseTime: parse}, nil
}

// NewHistoryBuilder returns a builder for assembling histories by hand
// (tests, log converters, anomaly reproductions).
func NewHistoryBuilder() *HistoryBuilder { return history.NewBuilder() }

// WriteHistory persists a history as a JSON-lines log.
func WriteHistory(path string, h *History) error { return histio.WriteFile(path, h) }

// ReadHistory loads and validates a JSON-lines history log.
func ReadHistory(path string) (*History, error) { return histio.ReadFile(path) }

// Workload generation: re-exported so applications can produce histories
// against the bundled SI engine (see package workload and runner).
type (
	// Generator produces transaction programs for RunWorkload.
	Generator = workload.Generator
	// RunConfig configures RunWorkload (clients, size, seed, engine
	// faults, collector clock drift).
	RunConfig = runner.Config
	// RunStats summarizes a workload run.
	RunStats = runner.Stats
)

// Bundled benchmark generators (the paper's §7 workloads).
var (
	// NewBlindWRW is the BlindW-RW microbenchmark (50% read-only / 50%
	// write-only transactions).
	NewBlindWRW = func() Generator { return workload.NewBlindWRW() }
	// NewBlindWRM is BlindW-RM (90% read-only).
	NewBlindWRM = func() Generator { return workload.NewBlindWRM() }
	// NewRangeB is the balanced V-Range mix.
	NewRangeB = func() Generator { return workload.NewRangeB() }
	// NewRangeRQH is the range-query-heavy V-Range mix.
	NewRangeRQH = func() Generator { return workload.NewRangeRQH() }
	// NewRangeIDH is the insert/delete-heavy V-Range mix.
	NewRangeIDH = func() Generator { return workload.NewRangeIDH() }
	// NewAppend is the Jepsen-style list-append workload.
	NewAppend = func() Generator { return workload.NewAppend() }
)

// NewTPCC returns the C-TPCC macrobenchmark generator.
func NewTPCC(customersPerDistrict int) Generator { return workload.NewTPCC(customersPerDistrict) }

// NewRUBiS returns the C-RUBiS macrobenchmark generator.
func NewRUBiS(users, items int) Generator { return workload.NewRUBiS(users, items) }

// NewTwitter returns the C-Twitter macrobenchmark generator.
func NewTwitter(users int) Generator { return workload.NewTwitter(users) }

// RunWorkload executes a workload with concurrent clients against the
// bundled SI engine through history collectors and returns the recorded
// history (the paper's Figure 1 pipeline, self-contained).
func RunWorkload(gen Generator, cfg RunConfig) (*History, RunStats, error) {
	return runner.Run(gen, cfg)
}
