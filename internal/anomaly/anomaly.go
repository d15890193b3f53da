// Package anomaly injects SI violations into otherwise-valid histories,
// reconstructing the violation classes of the paper's §7.3: the synthetic
// anomalies of Figure 15 (G1c, long fork, G-SIb) and the real-world
// Jepsen-report classes of Figure 14 (lost update, aborted read, cyclic
// information flow, read-your-future-writes, read skew), plus a
// range-query phantom that exercises §4's tombstone reading. Each injection
// appends a handful of transactions over fresh keys, mirroring the paper's
// "insert one anomaly per history" methodology (pessimistic for checkers,
// since real bugs usually trigger many anomalies).
package anomaly

import (
	"fmt"

	"viper/internal/history"
)

// Kind enumerates the injectable violations.
type Kind uint8

const (
	// G1c is cyclic information flow: two transactions each read the
	// other's write (a cycle of read dependencies).
	G1c Kind = iota
	// LongFork is the §3.1 example: two concurrent updates fork the state
	// and two readers observe the fork in opposite orders.
	LongFork
	// GSIb is a cycle with exactly one anti-dependency edge.
	GSIb
	// LostUpdate is two read-modify-writes of the same version, both
	// committed (MongoDB 4.2.6 in Figure 14).
	LostUpdate
	// AbortedRead is a committed read observing an aborted write (G1a);
	// rejected by history validation.
	AbortedRead
	// ReadYourFutureWrites is a read observing the same transaction's
	// later write; rejected by history validation.
	ReadYourFutureWrites
	// ReadSkew is a fractured snapshot across two keys (TiDB 2.1.7 in
	// Figure 14); the same dependency shape as GSIb.
	ReadSkew
	// FracturedRead is the Read Atomic violation: a reader observes one
	// key from a transaction but another key from a version that
	// transaction superseded, splitting its atomic write set. Read
	// Committed accepts it (no intermediate read, no wr cycle); Read
	// Atomic and everything stronger reject.
	FracturedRead
	// CausalFork is the causally-fenced fork: a reader observes a write
	// whose author had itself observed an earlier write, yet reads the
	// earlier write's key from a superseded version. Read Atomic accepts
	// it (the stale read's author is not a *direct* dependency), Causal
	// Consistency and everything stronger reject — the level-separating
	// variant of the long fork, which Causal still accepts.
	CausalFork
	// Phantom is a fractured snapshot that only a range query shows: a
	// reader observes one of T's inserts and scans a range that covers
	// another key T inserted, but the scan's result omits it. Under §4's
	// tombstone discipline the omission is a read of that key's initial
	// version, which T superseded. Read Committed accepts it; Read Atomic
	// and everything stronger reject, as for a fractured read.
	Phantom
)

// String implements fmt.Stringer, using the paper's Figure 14/15 labels.
func (k Kind) String() string {
	switch k {
	case G1c:
		return "G1c: cyclic information flow"
	case LongFork:
		return "long-fork"
	case GSIb:
		return "G-SIb"
	case LostUpdate:
		return "lost update"
	case AbortedRead:
		return "aborted read"
	case ReadYourFutureWrites:
		return "read your future writes"
	case ReadSkew:
		return "read skew"
	case FracturedRead:
		return "fractured read"
	case CausalFork:
		return "causal fork"
	case Phantom:
		return "phantom"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds lists every injectable violation.
func Kinds() []Kind {
	return []Kind{G1c, LongFork, GSIb, LostUpdate, AbortedRead, ReadYourFutureWrites, ReadSkew, FracturedRead, CausalFork, Phantom}
}

// ValidationLevel reports whether the violation is caught by history
// validation (before any graph analysis), as aborted reads and future
// reads are.
func (k Kind) ValidationLevel() bool {
	return k == AbortedRead || k == ReadYourFutureWrites
}

// MatrixLevels lists the verdict-matrix levels in lattice order, by the
// textual names core.ParseLevel accepts. This package cannot import core
// (core's own tests inject anomalies), so the expectations table speaks
// level names; callers map them back with core.ParseLevel.
var MatrixLevels = []string{
	"read-committed",
	"read-atomic",
	"causal",
	"adya-si",
	"gsi",
	"serializability",
}

// Expectation is one Kind's expected verdict matrix when injected into a
// clean base history (one every matrix level accepts — empty, or serial
// single-writer). It is the package's ground truth for level-aware
// checking: the corpus tests assert both independent per-level checks
// and one-pass matrix audits reproduce exactly this classification.
type Expectation struct {
	// Validation marks kinds rejected by history validation, before any
	// level's graph analysis: every level reports the same validation
	// rejection and Accepts/WeakestViolated are empty.
	Validation bool
	// Accepts maps each MatrixLevels name to the expected verdict: true
	// accept, false reject.
	Accepts map[string]bool
	// WeakestViolated names the weakest rejecting level — the headline
	// classification a matrix audit reports for the anomaly.
	WeakestViolated string
}

// rejectFrom builds the chain expectation: every level weaker than the
// given one accepts, it and everything stronger rejects (all injected
// anomalies are violations of a chain level, so Serializability — the
// off-chain branch — rejects whenever the chain does).
func rejectFrom(level string) Expectation {
	e := Expectation{Accepts: make(map[string]bool, len(MatrixLevels)), WeakestViolated: level}
	rejecting := false
	for _, l := range MatrixLevels {
		if l == level {
			rejecting = true
		}
		e.Accepts[l] = !rejecting
	}
	return e
}

// Expectation returns the Kind's expected level matrix. The weakest
// violated level is what makes the corpus level-aware: G1c's wr cycle
// already breaks Read Committed; fractured reads, read skew and the
// phantom split an atomic write set (Read Atomic); the causal fork needs
// transitive observation (Causal); and the long fork, G-SIb, and lost
// update are invisible below snapshot isolation.
func (k Kind) Expectation() Expectation {
	switch k {
	case G1c:
		return rejectFrom("read-committed")
	case FracturedRead, ReadSkew, Phantom:
		return rejectFrom("read-atomic")
	case CausalFork:
		return rejectFrom("causal")
	case LongFork, GSIb, LostUpdate:
		return rejectFrom("adya-si")
	default: // AbortedRead, ReadYourFutureWrites
		return Expectation{Validation: true}
	}
}

// injector appends transactions to an existing history with fresh write
// ids, fresh sessions, and timestamps after every existing event.
type injector struct {
	h       *history.History
	nextWID history.WriteID
	nextSes int32
	clock   int64
}

func newInjector(h *history.History) *injector {
	inj := &injector{h: h, nextWID: 1}
	for _, t := range h.Txns[1:] {
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.WriteID >= inj.nextWID {
				inj.nextWID = op.WriteID + 1
			}
		}
		if t.Session >= inj.nextSes {
			inj.nextSes = t.Session + 1
		}
		if t.BeginAt > inj.clock {
			inj.clock = t.BeginAt
		}
		if t.CommitAt > inj.clock {
			inj.clock = t.CommitAt
		}
	}
	return inj
}

func (inj *injector) wid() history.WriteID {
	w := inj.nextWID
	inj.nextWID++
	return w
}

func (inj *injector) tick() int64 {
	inj.clock++
	return inj.clock
}

// txn appends a transaction in a fresh session.
func (inj *injector) txn(status history.Status, ops ...history.Op) history.TxnID {
	t := &history.Txn{
		Session: inj.nextSes,
		BeginAt: inj.tick(),
		Status:  status,
		Ops:     ops,
	}
	inj.nextSes++
	t.CommitAt = inj.tick()
	return inj.h.Append(t)
}

func write(key history.Key, w history.WriteID) history.Op {
	return history.Op{Kind: history.OpWrite, Key: key, WriteID: w}
}

func read(key history.Key, obs history.WriteID) history.Op {
	return history.Op{Kind: history.OpRead, Key: key, Observed: obs}
}

// Inject appends the violation's transactions to h; callers must call
// h.Validate() afterwards (before checking) to refresh the history's
// indexes. For non-validation kinds the mutated history still validates
// (the violation is semantic); for validation kinds Validate fails —
// which is the expected rejection evidence. The same history pointer is
// returned.
func Inject(h *history.History, kind Kind) *history.History {
	inj := newInjector(h)
	switch kind {
	case G1c:
		// Ta writes x and reads Tb's y; Tb reads Ta's x and writes y.
		wx, wy := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, write("anom:g1c:x", wx), read("anom:g1c:y", wy))
		inj.txn(history.StatusCommitted, read("anom:g1c:x", wx), write("anom:g1c:y", wy))
	case LongFork:
		x, y := history.Key("anom:lf:x"), history.Key("anom:lf:y")
		w1x, w1y := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, write(x, w1x), write(y, w1y))
		w2x := inj.wid()
		inj.txn(history.StatusCommitted, read(x, w1x), write(x, w2x))
		w3y := inj.wid()
		inj.txn(history.StatusCommitted, read(y, w1y), write(y, w3y))
		inj.txn(history.StatusCommitted, read(x, w2x), read(y, w1y))
		inj.txn(history.StatusCommitted, read(x, w1x), read(y, w3y))
	case GSIb:
		// A blind-write fork: like LongFork but without the RMW reads, so
		// no write order is manifested. Every version order yields a
		// forbidden cycle (viper rejects), and under the orders that
		// disagree with the commit timestamps the cycle has exactly one
		// anti-dependency — a G-SIb. Under the timestamp-plausible order
		// the only cycle has two non-consecutive anti-dependencies, which
		// Elle's 0/1-rw conditions do not examine: its inferred mode
		// accepts this history (Figure 15's G-SIb row).
		x, y := history.Key("anom:gsib:x"), history.Key("anom:gsib:y")
		w1x, w1y := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, write(x, w1x), write(y, w1y))
		w2x := inj.wid()
		inj.txn(history.StatusCommitted, write(x, w2x)) // blind
		w3y := inj.wid()
		inj.txn(history.StatusCommitted, write(y, w3y)) // blind
		inj.txn(history.StatusCommitted, read(x, w2x), read(y, w1y))
		inj.txn(history.StatusCommitted, read(x, w1x), read(y, w3y))
	case ReadSkew:
		// A reader observes p before and q after a paired update: a
		// fractured snapshot (a single-anti-dependency cycle).
		p, q := history.Key("anom:rskew:p"), history.Key("anom:rskew:q")
		wp, wq := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, write(p, wp), write(q, wq))
		inj.txn(history.StatusCommitted, read(p, history.GenesisWriteID), read(q, wq))
	case FracturedRead:
		// T0 installs x,y atomically; T1 reads both and overwrites both
		// (manifesting T0 < T1); T2 reads x from T1 but y from T0 — T1's
		// atomic write set arrives fractured. Read Committed sees no
		// intermediate read and no wr cycle; Read Atomic's saturation
		// forces T1 before T0 (T2 observed T1 yet read T0's y) against the
		// manifested order.
		x, y := history.Key("anom:fr:x"), history.Key("anom:fr:y")
		w0x, w0y := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, write(x, w0x), write(y, w0y))
		w1x, w1y := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted, read(x, w0x), read(y, w0y), write(x, w1x), write(y, w1y))
		inj.txn(history.StatusCommitted, read(x, w1x), read(y, w0y))
	case CausalFork:
		// T1 writes x; T2 reads it and writes y; T3 reads y from T2 but x
		// from genesis. T1 is a causal (transitive) dependency of T3, so
		// Causal forces T1 before genesis — a cycle — while Read Atomic,
		// which saturates only over direct observations, accepts: T3's
		// direct observations are {T2, genesis}, and T2 wrote no x.
		x, y := history.Key("anom:cf:x"), history.Key("anom:cf:y")
		wx := inj.wid()
		inj.txn(history.StatusCommitted, write(x, wx))
		wy := inj.wid()
		inj.txn(history.StatusCommitted, read(x, wx), write(y, wy))
		inj.txn(history.StatusCommitted, read(y, wy), read(x, history.GenesisWriteID))
	case Phantom:
		// T inserts a and b; R reads a from T, then scans [b, z], whose
		// empty result says b was never inserted.
		a, b := history.Key("anom:ph:a"), history.Key("anom:ph:b")
		wa, wb := inj.wid(), inj.wid()
		inj.txn(history.StatusCommitted,
			history.Op{Kind: history.OpInsert, Key: a, WriteID: wa},
			history.Op{Kind: history.OpInsert, Key: b, WriteID: wb})
		inj.txn(history.StatusCommitted, read(a, wa), history.Op{Kind: history.OpRange, Lo: b, Hi: "anom:ph:z"})
	case LostUpdate:
		k := history.Key("anom:lu:counter")
		w0 := inj.wid()
		inj.txn(history.StatusCommitted, write(k, w0))
		w1 := inj.wid()
		inj.txn(history.StatusCommitted, read(k, w0), write(k, w1))
		w2 := inj.wid()
		inj.txn(history.StatusCommitted, read(k, w0), write(k, w2))
	case AbortedRead:
		k := history.Key("anom:g1a:x")
		w := inj.wid()
		inj.txn(history.StatusAborted, write(k, w))
		inj.txn(history.StatusCommitted, read(k, w))
	case ReadYourFutureWrites:
		k := history.Key("anom:future:x")
		w := inj.wid()
		inj.txn(history.StatusCommitted, read(k, w), write(k, w))
	}
	return h
}
