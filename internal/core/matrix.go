// The isolation-level verdict matrix: one history ingest, one verdict
// per level of the lattice.
//
// The matrix exploits the implementation-level chain
//
//	ReadCommitted ⊂ ReadAtomic ⊂ Causal ⊂ AdyaSI ⊂ {GSI, Serializability}
//
// (session order is deliberately excluded from ReadAtomic/Causal, and G1b
// intermediate reads are screened at every level, precisely so this chain
// holds — see causal.go and Incremental.AuditContext). Monotonicity cuts
// the work in both directions: an AdyaSI accept derives the three
// polynomial accepts below it without running them, and a rejection at
// any chain level refutes every stronger level without solving. Only a
// rejected AdyaSI pays for the polynomial chain — and then bottom-up with
// its own short-circuit, to name the weakest violated level.
//
// A Matrix is a session, not a one-shot: its AdyaSI and Serializability
// sub-sessions are ordinary warm Incrementals and its GSI sub-session
// keeps its indexes (GSI's real-time edges force a cold audit, which
// builds through the window stage each time), so auditing a growing
// history repeatedly costs far less than six independent checks — one
// validation, one observation index across the polynomial levels, two
// persistent solvers, three derived verdicts in the common case.
package core

import (
	"context"
	"time"

	"viper/internal/history"
)

// MatrixLevels is the verdict matrix's fixed evaluation set, ordered
// weakest-first: the polynomial chain, then AdyaSI, then its two mutually
// incomparable strengthenings — GSI (real-time commit obligations) and
// Serializability (one total order). The session/real-time SI variants
// (StrongSessionSI, StrongSI) remain single-level Check territory.
var MatrixLevels = []Level{ReadCommitted, ReadAtomic, Causal, AdyaSI, GSI, Serializability}

// matrixIdx maps a level to its MatrixLevels slot (-1 if absent).
func matrixIdx(l Level) int {
	for i, ml := range MatrixLevels {
		if ml == l {
			return i
		}
	}
	return -1
}

// LevelVerdict is one level's row of the matrix.
type LevelVerdict struct {
	Level   Level
	Outcome Outcome
	// Derived marks a verdict implied by lattice monotonicity rather than
	// checked directly; From names the level whose checked verdict implies
	// it (an accept propagates down the chain, a reject propagates up).
	// Derived verdicts normally carry no Report; the one exception is a
	// level whose own run timed out and was then superseded by a weaker
	// level's rejection — the timeout report is kept alongside.
	Derived bool
	From    Level
	// Report is the level's full checking report (witness positions,
	// counterexample cycle, anomaly, phase timings) when the level ran.
	Report *Report
}

// MatrixReport is the result of one matrix audit: a verdict for every
// level in MatrixLevels, plus the lattice summary.
type MatrixReport struct {
	// Verdicts is index-aligned with MatrixLevels.
	Verdicts []LevelVerdict
	// Violated reports whether any level rejected; WeakestViolated is then
	// the first rejecting level in MatrixLevels order — the headline "what
	// did this history actually break". (GSI precedes Serializability in
	// the canonical order; the two are incomparable.)
	Violated        bool
	WeakestViolated Level
	// Satisfied reports whether any level accepted; StrongestSatisfied is
	// then the last accepting level in MatrixLevels order.
	Satisfied          bool
	StrongestSatisfied Level
	// Checked counts the levels that ran their own check this audit (the
	// rest were derived); Wall is the whole pass's wall clock.
	Checked int
	Wall    time.Duration
}

// Verdict returns the row for a level, or nil if the level is not part of
// the matrix.
func (m *MatrixReport) Verdict(l Level) *LevelVerdict {
	for i := range m.Verdicts {
		if m.Verdicts[i].Level == l {
			return &m.Verdicts[i]
		}
	}
	return nil
}

// Outcome aggregates the matrix for exit-code purposes: Reject if any
// level rejected, else Timeout if any level timed out, else Accept.
func (m *MatrixReport) Outcome() Outcome {
	agg := Accept
	for i := range m.Verdicts {
		switch m.Verdicts[i].Outcome {
		case Reject:
			return Reject
		case Timeout:
			agg = Timeout
		}
	}
	return agg
}

// Matrix is a long-lived verdict-matrix session over a growing history.
// Bind is implicit: each audit names the history, and the sub-sessions
// re-bind (dropping their warm state) whenever the pointer changes — which
// is also how a checkpoint's history replacement is detected. Like
// Incremental, a Matrix is not safe for concurrent use, and audits require
// the history to be validated first.
type Matrix struct {
	opts Options
	h    *history.History

	// Sub-sessions sharing h: AdyaSI and Serializability keep persistent
	// solvers; GSI always audits cold (real-time edges are not monotone)
	// and keeps only its indexes.
	si, gsi, ser *Incremental
}

// NewMatrix returns an empty matrix session. opts.Level is ignored — the
// matrix fixes its own levels; every other option (timeout, drift,
// ablation toggles, SelfCheck, Progress, Tracer) applies to each level's
// check. Options.Timeout budgets each level separately; bound the whole
// audit with the context instead.
func NewMatrix(opts Options) *Matrix {
	return &Matrix{opts: opts}
}

// levelOpts is the session options re-leveled, with the Progress callback
// kept only on the primary (AdyaSI) session so snapshot streams from
// secondary levels don't interleave with it.
func (m *Matrix) levelOpts(l Level) Options {
	o := m.opts
	o.Level = l
	if l != AdyaSI {
		o.Progress = nil
	}
	return o
}

// bind (re)creates the sub-sessions when the history pointer changes.
func (m *Matrix) bind(h *history.History) {
	if m.h == h {
		return
	}
	m.h = h
	sub := func(l Level) *Incremental {
		inc := NewIncremental(m.levelOpts(l))
		inc.h = h
		return inc
	}
	m.si, m.gsi, m.ser = sub(AdyaSI), sub(GSI), sub(Serializability)
}

// Audit is AuditContext without cancellation.
func (m *Matrix) Audit(h *history.History) *MatrixReport {
	return m.AuditContext(context.Background(), h)
}

// AuditContext runs one matrix audit over h (validated by the caller,
// like Incremental.AuditContext). Per-level verdicts are always identical
// to an independent CheckHistory at that level over the same history;
// derivation only ever replaces a check whose outcome monotonicity fixes.
func (m *Matrix) AuditContext(ctx context.Context, h *history.History) *MatrixReport {
	start := time.Now()
	m.bind(h)

	mr := &MatrixReport{Verdicts: make([]LevelVerdict, len(MatrixLevels))}
	filled := make([]bool, len(MatrixLevels))
	for i, l := range MatrixLevels {
		mr.Verdicts[i].Level = l
	}
	set := func(l Level, rep *Report) {
		i := matrixIdx(l)
		mr.Verdicts[i] = LevelVerdict{Level: l, Outcome: rep.Outcome, Report: rep}
		filled[i] = true
		mr.Checked++
	}
	derive := func(l, from Level, o Outcome) {
		i := matrixIdx(l)
		if filled[i] {
			// A checked verdict stands, except that a weaker level's
			// rejection supersedes a timeout: the refutation is exact and
			// the timed-out check would eventually have agreed. The timeout
			// report stays attached for its phase accounting.
			if o != Reject || mr.Verdicts[i].Outcome != Timeout {
				return
			}
			v := &mr.Verdicts[i]
			v.Outcome, v.Derived, v.From = Reject, true, from
			return
		}
		mr.Verdicts[i] = LevelVerdict{Level: l, Outcome: o, Derived: true, From: from}
		filled[i] = true
	}

	// AdyaSI first: the level whose verdict short-circuits the most work
	// in both directions.
	siRep := m.si.AuditContext(ctx)
	set(AdyaSI, siRep)

	if siRep.Outcome == Accept {
		// Downward: an SI schedule's commit order satisfies every weaker
		// chain level, so the polynomial checks need not run at all.
		derive(Causal, AdyaSI, Accept)
		derive(ReadAtomic, AdyaSI, Accept)
		derive(ReadCommitted, AdyaSI, Accept)
	} else {
		// Rejected (or timed out): run the polynomial chain bottom-up over
		// one shared observation index to name the weakest violated level,
		// short-circuiting upward on the first rejection.
		g := buildObsGraph(h)
		rc := checkReadCommittedGraph(h, g, m.levelOpts(ReadCommitted))
		set(ReadCommitted, rc)
		if rc.Outcome == Reject {
			derive(ReadAtomic, ReadCommitted, Reject)
			derive(Causal, ReadCommitted, Reject)
		} else {
			ra := checkReadAtomicGraph(h, g, m.levelOpts(ReadAtomic))
			set(ReadAtomic, ra)
			if ra.Outcome == Reject {
				derive(Causal, ReadAtomic, Reject)
			} else {
				set(Causal, checkCausalGraph(h, g, m.levelOpts(Causal)))
			}
		}
	}

	// Upward: a rejection anywhere on the chain refutes every stronger
	// level. The weakest rejecting level (always a checked verdict — the
	// bottom-up pass stops at the first reject) is the attribution.
	weakest, haveReject := ReadCommitted, false
	for _, l := range [...]Level{ReadCommitted, ReadAtomic, Causal, AdyaSI} {
		if v := mr.Verdicts[matrixIdx(l)]; filled[matrixIdx(l)] && v.Outcome == Reject {
			weakest, haveReject = l, true
			break
		}
	}
	if haveReject {
		derive(AdyaSI, weakest, Reject) // no-op unless AdyaSI timed out
		derive(GSI, weakest, Reject)
		derive(Serializability, weakest, Reject)
	} else {
		// The chain holds (or is undecided): the two strongest levels must
		// be checked on their own — nothing implies them.
		set(GSI, m.gsi.AuditContext(ctx))
		set(Serializability, m.ser.AuditContext(ctx))
	}

	for i := range mr.Verdicts {
		switch v := &mr.Verdicts[i]; v.Outcome {
		case Reject:
			if !mr.Violated {
				mr.Violated, mr.WeakestViolated = true, v.Level
			}
		case Accept:
			mr.Satisfied, mr.StrongestSatisfied = true, v.Level
		}
	}
	mr.Wall = time.Since(start)
	return mr
}

// CheckMatrixHistory runs a one-shot matrix audit over a validated
// history: every MatrixLevels verdict from a single ingest.
func CheckMatrixHistory(h *history.History, opts Options) *MatrixReport {
	return CheckMatrixContext(context.Background(), h, opts)
}

// CheckMatrixContext is CheckMatrixHistory under a cancellation context.
func CheckMatrixContext(ctx context.Context, h *history.History, opts Options) *MatrixReport {
	return NewMatrix(opts).AuditContext(ctx, h)
}
