package viper

import (
	"context"
	"time"

	"viper/internal/core"
	"viper/internal/history"
)

// Checker is a long-lived checking session for online auditing: append
// transactions as they are observed, then Audit the accumulated history as
// often as needed. Each audit reuses the session's read and write indexes.
// At AdyaSI and Serializability, later audits also carry one SAT solver
// (learned clauses, activities, topological order) across audits: such a
// warm audit encodes only what changed since the last one, then runs the
// one-shot check's schedule, resolution and stages on the carried solver
// (see DESIGN.md, "Online incremental checking"). The schedule and
// resolution still cover the whole live window, and a writer chain that
// grows at its tail re-encodes the whole session, so on read-modify-write
// streams a warm audit costs more than the delta.
//
// Verdicts are always equivalent to Check on a snapshot of the same
// transactions. A Checker is not safe for concurrent use. Once an audit
// rejects at the graph level, the verdict is permanent (the checked levels
// are prefix-closed) and later audits return it immediately; a rejection at
// validation, by contrast, can resolve itself when the missing write
// arrives, so appending after any rejection is allowed.
type Checker struct {
	opts   Options
	inc    *core.Incremental
	policy CheckpointPolicy
	// matrix is the lazily-created verdict-matrix session backing
	// AuditMatrix; its warm sub-sessions are independent of inc.
	matrix *core.Matrix
}

// NewChecker starts an empty checking session with the given options.
func NewChecker(opts Options) *Checker {
	return &Checker{opts: opts, inc: core.NewIncremental(opts)}
}

// CheckpointPolicy makes a session checkpoint itself: after every
// accepting audit whose live window crosses a threshold, the checked
// prefix is compacted into a certificate (see Checker.Checkpoint) and its
// memory reclaimed. The zero policy disables auto-checkpointing.
type CheckpointPolicy struct {
	// EveryTxns checkpoints when the live window holds at least this many
	// transactions (0 disables the transaction trigger).
	EveryTxns int
	// MaxLiveOps checkpoints when the live window holds at least this many
	// operations (0 disables the operation trigger) — the memory-watermark
	// flavor, since session footprint is proportional to live ops.
	MaxLiveOps int
	// Keep is how many of the most recent transactions stay live at each
	// checkpoint. Default: EveryTxns/4 (or a quarter of the window when
	// only MaxLiveOps is set), so consecutive checkpoints amortize.
	Keep int
}

// active reports whether any trigger is configured.
func (p CheckpointPolicy) active() bool { return p.EveryTxns > 0 || p.MaxLiveOps > 0 }

// SetCheckpointPolicy installs (or, with the zero policy, removes) the
// session's auto-checkpoint policy. Only AdyaSI and Serializability
// sessions can checkpoint; for other levels audits report the policy's
// failure in Result.CheckpointErr.
func (c *Checker) SetCheckpointPolicy(p CheckpointPolicy) { c.policy = p }

// Checkpoint compacts the checked prefix into a certificate, keeping the
// most recent keep transactions live (the boundary can move earlier to
// keep the fence clean — see core.Incremental.Checkpoint). It requires
// the most recent audit to have accepted everything appended so far, and
// returns how many transactions were compacted. External transaction ids
// remain stable: violations found after checkpoints name the same
// transactions the unbounded session would.
func (c *Checker) Checkpoint(keep int) (int, error) { return c.inc.Checkpoint(keep) }

// Certificate returns a summary of the session's checkpoint certificate
// (zero value before the first checkpoint).
func (c *Checker) Certificate() Certificate { return c.inc.Certificate() }

// LiveOps returns the operation count of the live (uncompacted) window.
func (c *Checker) LiveOps() int64 { return c.inc.LiveOps() }

// LifetimeLen returns the total number of transactions ever appended,
// including compacted ones.
func (c *Checker) LifetimeLen() int { return c.inc.Len() + c.inc.Certificate().FencedTxns }

// LifetimeOps returns the total number of operations ever appended,
// including compacted ones.
func (c *Checker) LifetimeOps() int64 { return c.inc.LiveOps() + c.inc.Certificate().FencedOps }

// Append adds transactions to the session's history, assigning their ids
// in order; the caller keeps ownership of the passed structs (they are
// copied, and the caller's ID fields are not modified).
func (c *Checker) Append(txns ...*Txn) {
	for _, t := range txns {
		t2 := *t
		c.inc.Append(&t2)
	}
}

// AppendHistory appends every transaction of h (genesis excluded) to the
// session, preserving their order. h itself is not modified.
func (c *Checker) AppendHistory(h *History) {
	c.Append(h.Txns[1:]...)
}

// Len returns the number of transactions appended so far.
func (c *Checker) Len() int { return c.inc.Len() }

// History returns a snapshot copy of the session's accumulated history,
// suitable for an independent batch Check or for persisting.
func (c *Checker) History() *History {
	src := c.inc.History()
	h := history.New()
	// The certificate is immutable once installed, so snapshots share it;
	// a snapshot of a checkpointed session is the live window plus fence.
	// (Persisting such a snapshot with histio keeps only the live window.)
	h.SetFence(src.Fence())
	for _, t := range src.Txns[1:] {
		t2 := *t
		h.Append(&t2)
	}
	return h
}

// ReportDoc assembles the report document for res, the result of this
// session's latest audit, as tool (the emitting surface) reports it. It
// reads the live window that audit validated (or that its automatic
// checkpoint compacted and validated), so call it before the next
// Append; the document equals core.BuildReportDoc's over a validated
// History snapshot, without the copy.
func (c *Checker) ReportDoc(tool string, res *Result) *ReportDoc {
	return core.BuildReportDoc(tool, "", c.inc.History(), res.ParseTime, res.Report, res.Violation, c.opts, nil)
}

// MatrixDoc is ReportDoc's twin for res, the result of this session's
// latest matrix audit: the document core.BuildMatrixDoc assembles over a
// validated History snapshot, read from the live window that audit
// validated, without the copy. Call it before the next Append.
func (c *Checker) MatrixDoc(tool string, res *MatrixResult) *ReportDoc {
	return core.BuildMatrixDoc(tool, "", c.inc.History(), res.ParseTime, res.Matrix, res.Violation, c.opts, nil)
}

// Progress returns the session's most recent progress snapshot: the final
// counters of the last audit, or — while an audit with Options.Progress
// configured runs — the latest solver sampling tick. Unlike every other
// method, Progress is safe to call from any goroutine at any time,
// including concurrently with Append and Audit; it reads one immutable
// value behind an atomic pointer.
func (c *Checker) Progress() ProgressSnapshot { return c.inc.Progress() }

// Audit checks everything appended so far and returns the verdict, exactly
// as Check would on the same transactions. The first audit does the full
// batch work; later audits extend the previous state by the appended delta.
func (c *Checker) Audit() *Result { return c.AuditContext(context.Background()) }

// AuditContext is Audit under a cancellation context: ctx's deadline
// bounds the audit like Options.Timeout (whichever expires first), and
// canceling ctx interrupts a running solve, returning Outcome Timeout
// promptly. A canceled audit leaves the session consistent — later audits
// simply retry the solve over the same accumulated state. This is how a
// serving layer (viperd) maps request deadlines and client disconnects
// onto long-running audits without leaking solver work.
func (c *Checker) AuditContext(ctx context.Context) *Result {
	start := time.Now()
	if err := validate(c.inc.History(), c.opts.Tracer); err != nil {
		return &Result{Outcome: Reject, Violation: err, ParseTime: time.Since(start)}
	}
	parse := time.Since(start)
	rep := c.inc.AuditContext(ctx)
	res := &Result{Outcome: rep.Outcome, Report: rep, ParseTime: parse}
	if rep.Outcome == Accept && c.policy.active() &&
		(c.policy.EveryTxns > 0 && c.inc.Len() >= c.policy.EveryTxns ||
			c.policy.MaxLiveOps > 0 && c.inc.LiveOps() >= int64(c.policy.MaxLiveOps)) {
		keep := c.policy.Keep
		if keep <= 0 {
			if keep = c.policy.EveryTxns / 4; keep <= 0 {
				keep = c.inc.Len() / 4
			}
		}
		res.Compacted, res.CheckpointErr = c.inc.Checkpoint(keep)
	}
	return res
}

// AuditMatrix checks everything appended so far against every level of
// the verdict matrix (see CheckMatrix), reusing the matrix session's warm
// state across calls: the AdyaSI and Serializability sub-sessions keep
// their solvers, the GSI sub-session its construction records, and the
// polynomial levels are derived outright whenever monotonicity decides
// them — so repeated matrix audits of a growing history cost roughly the
// delta, not six fresh checks. Per-level verdicts always equal CheckMatrix
// (and independent Check calls) on a snapshot of the same transactions.
//
// AuditMatrix is independent of Audit: it neither consumes nor produces
// the single-level session's state, and it never triggers the checkpoint
// policy (checkpointing certifies the session's own level; compact via
// Audit + Checkpoint — the matrix session re-binds automatically after a
// compaction).
func (c *Checker) AuditMatrix() *MatrixResult { return c.AuditMatrixContext(context.Background()) }

// AuditMatrixContext is AuditMatrix under a cancellation context: ctx
// bounds the whole pass, Options.Timeout each level's check.
func (c *Checker) AuditMatrixContext(ctx context.Context) *MatrixResult {
	start := time.Now()
	if err := validate(c.inc.History(), c.opts.Tracer); err != nil {
		return &MatrixResult{Outcome: Reject, Violation: err, ParseTime: time.Since(start)}
	}
	parse := time.Since(start)
	if c.matrix == nil {
		c.matrix = core.NewMatrix(c.opts)
	}
	mr := c.matrix.AuditContext(ctx, c.inc.History())
	return &MatrixResult{Outcome: mr.Outcome(), Matrix: mr, ParseTime: parse}
}
