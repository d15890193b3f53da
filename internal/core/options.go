// Package core implements the paper's primary contribution: BC-polygraphs
// (§3) and the SI-checking algorithm built on them (Figure 4), including
// heuristic pruning (§3.5), range-query support via tombstone semantics
// (§4), the SI-variant edges (§5), and Cobra's two optimizations adapted
// to BC-polygraphs (§6).
package core

import (
	"fmt"
	"runtime"
	"time"

	"viper/internal/obs"
)

// Level selects the isolation level to check. The hierarchy (Crooks et
// al., reproduced in §2.2) is
//
//	Strong SI ⊂ Strong Session SI ⊂ GSI ⊂ Adya SI,
//
// plus Serializability, which the same machinery checks with one node per
// transaction instead of a begin/commit pair (§9).
type Level uint8

const (
	// AdyaSI is vanilla snapshot isolation under logical timestamps
	// (Definition 1 without real-time obligations).
	AdyaSI Level = iota
	// GSI (Generalized SI) additionally requires reads to observe
	// transactions that committed in real time before the reader began —
	// but allows reading from old snapshots.
	GSI
	// StrongSessionSI is GSI plus session order: a session always observes
	// its own previous transactions (≡ Prefix-Consistent SI).
	StrongSessionSI
	// StrongSI requires reads from the most recent snapshot in real time.
	StrongSI
	// Serializability checks Adya serializability with the transaction-
	// level polygraph (the paper's §3.4 parallel, and §9's "stricter
	// levels" extension).
	Serializability
	// ReadCommitted checks Adya's PL-2 in polynomial time — §9's "even
	// weaker isolation levels are easy to check and do not need viper or
	// BC-polygraphs". Provided for completeness; it bypasses the polygraph
	// machinery entirely.
	ReadCommitted
	// ReadAtomic checks atomic visibility (Read Atomic of Cerone et al.,
	// decided with the polynomial saturation of Biswas & Enea): PL-2 plus
	// no fractured reads — a transaction that observes any write of T must
	// observe T's final write of every key it reads, never an older
	// version. Polynomial time, no solver.
	ReadAtomic
	// Causal checks transactional causal consistency (again polynomial per
	// Biswas & Enea): Read Atomic strengthened so the whole causal past —
	// the transitive closure of write-read dependencies, not just the
	// direct ones — must be observed consistently. Session guarantees are
	// deliberately excluded (as in AdyaSI), keeping the lattice chain
	// RC ⊂ RA ⊂ Causal ⊂ AdyaSI sound for the verdict matrix.
	Causal
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case AdyaSI:
		return "adya-si"
	case GSI:
		return "gsi"
	case StrongSessionSI:
		return "strong-session-si"
	case StrongSI:
		return "strong-si"
	case Serializability:
		return "serializability"
	case ReadCommitted:
		return "read-committed"
	case ReadAtomic:
		return "read-atomic"
	case Causal:
		return "causal"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// ParseLevel maps a level's textual name (as printed by String, plus the
// common short aliases) back to the Level. It is the one parser every
// surface shares — CLI flags, the daemon's session-creation requests —
// so the accepted spellings never drift apart.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "adya-si", "si":
		return AdyaSI, true
	case "gsi":
		return GSI, true
	case "strong-session-si", "sssi":
		return StrongSessionSI, true
	case "strong-si":
		return StrongSI, true
	case "serializability", "ser":
		return Serializability, true
	case "read-committed", "rc":
		return ReadCommitted, true
	case "read-atomic", "ra":
		return ReadAtomic, true
	case "causal", "cc":
		return Causal, true
	default:
		return 0, false
	}
}

// needsRealTime reports whether the level adds real-time edges.
func (l Level) needsRealTime() bool {
	return l == GSI || l == StrongSessionSI || l == StrongSI
}

// Polynomial reports whether the level is decided by a direct polynomial
// algorithm (readcommitted.go, ra.go, causal.go) instead of the
// BC-polygraph + solver pipeline.
func (l Level) Polynomial() bool {
	return l == ReadCommitted || l == ReadAtomic || l == Causal
}

// chainRank places the logically-comparable levels on the lattice's main
// chain; Serializability sits on its own branch above AdyaSI (stronger
// than SI's logical obligations, incomparable with the real-time levels,
// which permit write skew that Serializability forbids). -1 marks the
// off-chain level.
func (l Level) chainRank() int {
	switch l {
	case ReadCommitted:
		return 0
	case ReadAtomic:
		return 1
	case Causal:
		return 2
	case AdyaSI:
		return 3
	case GSI:
		return 4
	case StrongSessionSI:
		return 5
	case StrongSI:
		return 6
	default: // Serializability
		return -1
	}
}

// Implies reports whether satisfying level l implies satisfying w — the
// lattice partial order the verdict matrix's short-circuiting relies on:
// an Accept at l derives an Accept at every weaker w, a Reject at w
// derives a Reject at every l that implies w. The order is
//
//	ReadCommitted ⊂ ReadAtomic ⊂ Causal ⊂ AdyaSI ⊂ GSI ⊂ StrongSessionSI ⊂ StrongSI
//	                                      AdyaSI ⊂ Serializability
//
// with Serializability incomparable to the real-time branch (GSI and
// stronger allow write skew; Serializability has no real-time
// obligations).
func (l Level) Implies(w Level) bool {
	if l == w {
		return true
	}
	if l == Serializability {
		return w.chainRank() >= 0 && w.chainRank() <= AdyaSI.chainRank()
	}
	if w == Serializability {
		return false
	}
	return l.chainRank() >= w.chainRank()
}

// Options configure checking. The zero value checks Adya SI with every
// optimization enabled; use DefaultOptions to get it explicitly.
type Options struct {
	// Level is the isolation level to check.
	Level Level

	// ClockDrift bounds the clock skew between client collectors for the
	// real-time levels (§5): event i happens-before event j only if j's
	// timestamp exceeds i's by more than ClockDrift. Under this assumption
	// real-time checking is complete but not sound (a true violation inside
	// the drift window is excused).
	ClockDrift time.Duration

	// DisableCombineWrites turns off write combining (Cobra §3.1 adapted to
	// BC-polygraphs): inferring known write-dependency chains from
	// read-modify-write transactions.
	DisableCombineWrites bool

	// DisableCoalesce turns off constraint coalescing (Cobra §3.2 adapted):
	// one selector per writer-chain pair instead of per-read XOR
	// constraints.
	DisableCoalesce bool

	// DisablePruning turns off heuristic pruning (§3.5): a check runs one
	// exact pass over every constraint. A cold check's window (window.go)
	// is then built at radius 0: every writer pair of every key, up front.
	DisablePruning bool

	// DisableResolve turns off sound constraint resolution (resolve.go):
	// unit propagation over the known graph's transitive closure. It turns
	// off both of its passes: the pre-solve pass, which discharges
	// constraints and forces edges before any solver runs, and the
	// evidence pass, which names the cycle behind a solver refutation
	// (Report.KnownCycle). Resolution never changes verdicts, so this is an
	// escape hatch and ablation knob; with it set, a reject the solver
	// refutes names no cycle.
	DisableResolve bool

	// DisableTSFastPath turns off the timestamp-assisted fast path
	// (tsorder.go): validating constraints against the begin/commit order
	// the history's timestamps imply (under ClockDrift, with the strict
	// drift relation of realtime.go) and solving only the residue. The
	// path is on by default and engages automatically when every
	// committed transaction carries usable timestamps; it never changes
	// verdicts — an accept requires a genuine order witness, and a solver
	// pass that fails under the timestamp choices drops them and goes on
	// without — so this is an escape hatch and ablation knob.
	DisableTSFastPath bool

	// InitialK is the initial heuristic-pruning distance; 0 means the
	// default (128 nodes). When a pass fails only because of what pruning
	// asserted, the checker doubles K and retries on the same solver until
	// K exceeds the node count (at which point no heuristic is applied and
	// the answer is exact). It is also the window stage's radius
	// (window.go): a cold check without a timestamp stage first builds
	// only the writer pairs within K of each other in the schedule ŝ, and
	// widens the window with K, also when a pass's witness fails replay.
	InitialK int

	// Timeout bounds total checking time; zero means no limit.
	Timeout time.Duration

	// Parallelism is the worker count for BC-polygraph construction:
	// every written key's part of the polygraph is built under a
	// work-stealing pool of at most this many goroutines, and never more
	// than there are keys, and lands in key order, so the polygraph is the
	// same for any worker count. 0 (the default) means
	// runtime.GOMAXPROCS(0); one worker builds every key on the calling
	// goroutine. Build, CheckHistory, the incremental Checker, viperd and
	// cluster workers all construct this way. Negative values are
	// malformed (CheckKnobs).
	Parallelism int

	// SelfCheck replays the witness schedule after every Accept
	// (VerifyWitness, the operational reading of Theorem 4) and records the
	// outcome in the report. A failed self-check would indicate a checker
	// bug, never a property of the history.
	SelfCheck bool

	// Progress, when non-nil, receives point-in-time counter snapshots: at
	// phase boundaries and, during solving, roughly every ProgressInterval
	// (sampled synchronously on the solving goroutine, so the callback must
	// be fast and must not call back into the checker). Nil (the default)
	// costs one pointer check.
	Progress func(obs.Snapshot)

	// ProgressInterval is the solve-time sampling cadence for Progress;
	// 0 means the default (250ms).
	ProgressInterval time.Duration

	// Tracer, when non-nil, records phase-scoped spans into an exportable
	// trace, under one audit span per audit: construct (with the g1b
	// screen), tsorder, resolve, attempt(encode solve) per solver pass,
	// evidence after a refutation, and selfcheck; a warm audit's encode
	// span comes before its resolve span, and its rebuild attribute is 1
	// when the audit re-encoded the whole session, 0 otherwise. A cold
	// audit (the window stage, window.go) runs all its stages inside one
	// window span, whose attributes count the constraints it built,
	// widenings included, and give its Outcome; nothing follows it. The
	// viper package's Check and Checker audits, AuditMatrix included, open
	// a validate span before the audit span. Nil (the default) costs one
	// pointer check per phase boundary.
	Tracer *obs.Tracer
}

// DefaultOptions returns the recommended configuration for a level.
func DefaultOptions(l Level) Options { return Options{Level: l} }

// firstK is the radius of a check's first §3.5 pass, and of the window
// stage's first construction: InitialK, or 0 — the exact pass, over every
// constraint — with pruning off.
func (o *Options) firstK() int {
	switch {
	case o.DisablePruning:
		return 0
	case o.InitialK > 0:
		return o.InitialK
	}
	return 128
}

// progressInterval resolves ProgressInterval to a concrete cadence.
func (o *Options) progressInterval() time.Duration {
	if o.ProgressInterval > 0 {
		return o.ProgressInterval
	}
	return 250 * time.Millisecond
}

// CheckKnobs refuses negative Parallelism, InitialK and ClockDrift. Zero
// selects each knob's default; a negative value is malformed input that
// would otherwise change behaviour without a word (a negative drift
// orders events before earlier ones). The error names the knob by the
// caller's name for it: a surface passes its own names for Parallelism,
// InitialK and ClockDrift, in that order.
func (o *Options) CheckKnobs(parallelism, initialK, clockDrift string) error {
	switch {
	case o.Parallelism < 0:
		return fmt.Errorf("%s must not be negative (got %d)", parallelism, o.Parallelism)
	case o.InitialK < 0:
		return fmt.Errorf("%s must not be negative (got %d)", initialK, o.InitialK)
	case o.ClockDrift < 0:
		return fmt.Errorf("%s must not be negative (got %v)", clockDrift, o.ClockDrift)
	}
	return nil
}

// workers resolves Parallelism to a concrete construction worker count.
func (o *Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
