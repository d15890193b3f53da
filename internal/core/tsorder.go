// Timestamp-assisted fast path: when a history carries usable
// begin/commit timestamps, they already imply a total order over the
// polygraph's events, and on a conformant history that order decides
// every constraint without touching the solver (the timestamp-based
// online checkers of PAPERS.md — arXiv 2504.01477, Vbox's hybrid
// strategy in 2503.05163 — built their entire pipelines on this
// observation). The pass is sound by construction:
//
//   - A constraint side is ts-settled when every edge u→v satisfies the
//     strict drift relation ts(v) − ts(u) > ClockDrift — the same
//     happens-before realtime.go encodes, so the two files can never
//     disagree on boundary semantics. A constraint with exactly one
//     settled side is decided (timestamps chose the side); anything else
//     is residual and goes to the solver.
//   - Accepting on timestamps alone requires a genuine witness: every
//     constraint decided and every chosen side running forward in the
//     known graph's topological order. The witness order then contains a
//     compatible graph outright (Theorem 5), so the accept is exact even
//     when the timestamps are garbage — inconsistent timestamps can only
//     fail the check, never falsify it.
//   - When a residue remains, only the residue is encoded, and the first
//     solver pass asserts the decided sides as a guarded batch (see
//     check.go). Sat is a genuine accept (a model is a model). Unsat is a
//     refutation only if it used no batch edge (the solver's Okay() turns
//     false); otherwise the pass merely failed, the guard is dropped, and
//     the check continues without timestamps — full-set resolution, then
//     the §3.5 passes — on the same solver. Rejections therefore never
//     rest on timestamps.
//
// The incremental Checker threads the same classification through its
// warm solver as per-audit assumption literals, maintaining the event
// order across appends and falling back to a full re-sort on
// non-monotonic ingest (see incremental.go).
package core

import (
	"fmt"
	"sort"

	"viper/internal/history"
)

// tsUsable reports whether the history's timestamps can drive the fast
// path: every committed transaction (genesis excluded) must carry
// positive BeginAt/CommitAt stamps with BeginAt <= CommitAt. Histories
// assembled without stamps (raw history.Txn appends, imported Jepsen
// logs) fail deterministically — a zero timestamp would otherwise sort
// the event before genesis and derive a bogus order. The returned reason
// is surfaced as Report.TSUnusable.
func tsUsable(h *history.History) (ok bool, reason string) {
	if h == nil {
		return false, "no history attached to the polygraph"
	}
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			continue
		}
		if t.BeginAt <= 0 || t.CommitAt <= 0 {
			return false, fmt.Sprintf("txn %d carries absent or zero timestamps", t.ID)
		}
		if t.CommitAt < t.BeginAt {
			return false, fmt.Sprintf("txn %d commits before it begins (begin %d, commit %d)", t.ID, t.BeginAt, t.CommitAt)
		}
	}
	return true, ""
}

// tsClassify is one near-linear pass over the constraints: decided
// constraints go to chosen as indices (2·index + side, side 1 for the
// second), the rest to residual (cons and at only). A side with every
// edge strictly drift-implied is settled; exactly one settled side
// decides the constraint. Both-sides-settled — possible only with
// inconsistent cross-transaction timestamps — is deliberately residual:
// the solver, not the clock, owns contradictions.
type tsClassified struct {
	decided  int
	residual consSet
	chosen   []int32
}

func (pg *Polygraph) tsClassify(drift int64) tsClassified {
	settled := func(side []Edge) bool {
		for _, e := range side {
			if pg.nodeTS[e.To]-pg.nodeTS[e.From] <= drift {
				return false
			}
		}
		return true
	}
	out := tsClassified{chosen: make([]int32, 0, len(pg.Cons))}
	for i, c := range pg.Cons {
		f, s := settled(c.First), settled(c.Second)
		if f != s {
			out.decided++
			if f {
				out.chosen = append(out.chosen, 2*int32(i))
			} else {
				out.chosen = append(out.chosen, 2*int32(i)+1)
			}
		} else {
			out.residual.cons = append(out.residual.cons, c)
			out.residual.at = append(out.residual.at, int32(i))
		}
	}
	return out
}

// chosenSide returns the side a chosen-list entry names.
func chosenSide(cons []Constraint, ch int32) []Edge {
	if ch&1 == 0 {
		return cons[ch>>1].First
	}
	return cons[ch>>1].Second
}

// chosenForward reports whether every chosen side runs forward in pos.
func chosenForward(cons []Constraint, chosen []int32, pos []int32) bool {
	for _, ch := range chosen {
		for _, e := range chosenSide(cons, ch) {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
	}
	return true
}

// ---- Warm-path helpers (incremental.go) ----------------------------------

// tsWarm is one audit's view of the timestamp order for the warm solver:
// a raw-timestamp oracle over event nodes (no materialized positions —
// classification needs only the drift relation).
type tsWarm struct {
	h     *history.History
	ser   bool
	drift int64
}

// nodeTS returns an event node's timestamp under the session's node
// mapping (matching Polygraph.initNodeTS: one node per transaction,
// stamped with CommitAt, for Serializability; begin/commit pairs
// otherwise).
func (tw *tsWarm) nodeTS(n int32) int64 {
	if tw.ser {
		return tw.h.Txns[n].CommitAt
	}
	t := tw.h.Txns[n/2]
	if n&1 == 0 {
		return t.BeginAt
	}
	return t.CommitAt
}

func (tw *tsWarm) implies(u, v int32) bool { return tw.nodeTS(v)-tw.nodeTS(u) > tw.drift }

func (tw *tsWarm) settled(side []sideEdge) bool {
	for i := range side {
		if !tw.implies(side[i].e.From, side[i].e.To) {
			return false
		}
	}
	return true
}

// choose classifies one warm constraint: ok means the timestamps decided
// it, and first selects the side.
func (tw *tsWarm) choose(st *consState) (first, ok bool) {
	f, s := tw.settled(st.first), tw.settled(st.second)
	return f, f != s
}

// tsChoiceNone/First/Second encode a per-audit constraint decision.
const (
	tsChoiceNone = iota
	tsChoiceFirst
	tsChoiceSecond
)

// updateTS folds newly appended transactions into the session's
// timestamp state: the usability verdict (terminal — an unusable stamp
// never leaves the history, so there is no way back once one arrives)
// and the maintained event order. A committed transaction whose stamps
// extend the order monotonically appends in place; out-of-order ingest
// marks the order dirty and the next audit rebuilds it cold
// (rebuildTSOrder). The append path reproduces the rebuild's (timestamp,
// node id) sort exactly: appended nodes carry both larger stamps and
// larger ids than everything already ordered.
func (inc *Incremental) updateTS(newTxns []*history.Txn) {
	if inc.tsReason != "" {
		return
	}
	if !inc.tsDirty && len(inc.tsOrder) == 0 {
		// Seed genesis: both its stamps are zero, so it sorts first.
		if inc.ser() {
			inc.tsOrder = append(inc.tsOrder, 0)
		} else {
			inc.tsOrder = append(inc.tsOrder, 0, 1)
		}
	}
	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		switch {
		case t.BeginAt <= 0 || t.CommitAt <= 0:
			inc.tsReason = fmt.Sprintf("txn %d carries absent or zero timestamps", t.ID)
		case t.CommitAt < t.BeginAt:
			inc.tsReason = fmt.Sprintf("txn %d commits before it begins (begin %d, commit %d)", t.ID, t.BeginAt, t.CommitAt)
		}
		if inc.tsReason != "" {
			inc.tsOrder, inc.tsDirty = nil, false
			return
		}
		if inc.tsDirty {
			continue // a rebuild is already owed
		}
		low := t.BeginAt
		if inc.ser() {
			low = t.CommitAt
		}
		if low < inc.tsHigh {
			inc.tsDirty = true
			continue
		}
		if inc.ser() {
			inc.tsOrder = append(inc.tsOrder, int32(t.ID))
		} else {
			inc.tsOrder = append(inc.tsOrder, int32(t.ID)*2, int32(t.ID)*2+1)
		}
		inc.tsHigh = t.CommitAt
	}
}

// constantsForward reports whether every constant edge runs forward in
// pos; a position of -1 marks a node outside the timestamp order and
// fails the check. With every constant forward, every closure path over
// constants is forward too, so resolution-implied constraint sides need
// no separate check.
func constantsForward(known []KnownEdge, pos []int32) bool {
	for _, e := range known {
		if pos[e.From] < 0 || pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// rebuildTSOrder re-sorts the session's committed event nodes by
// (timestamp, node id) from scratch — the cold fallback after
// non-monotonic ingest, and the initial build. Genesis sorts first (its
// stamps are zero and usable histories carry positive stamps).
func (inc *Incremental) rebuildTSOrder() {
	type ev struct {
		ts   int64
		node int32
	}
	var evs []ev
	for _, t := range inc.h.Txns {
		if !t.Committed() {
			continue
		}
		if inc.ser() {
			evs = append(evs, ev{t.CommitAt, int32(t.ID)})
			continue
		}
		evs = append(evs, ev{t.BeginAt, int32(t.ID) * 2}, ev{t.CommitAt, int32(t.ID)*2 + 1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].ts != evs[j].ts {
			return evs[i].ts < evs[j].ts
		}
		return evs[i].node < evs[j].node
	})
	inc.tsOrder = inc.tsOrder[:0]
	for _, e := range evs {
		inc.tsOrder = append(inc.tsOrder, e.node)
	}
	inc.tsHigh = 0
	if len(evs) > 0 {
		inc.tsHigh = evs[len(evs)-1].ts
	}
	inc.tsDirty = false
}

// tsWitness turns the maintained event order into witness positions:
// ordered nodes first, every remaining node (aborted transactions'
// events) after them. Aborted events carry no edges or constraints, so
// any position is consistent.
func (inc *Incremental) tsWitness(n int32) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	next := int32(0)
	for _, nd := range inc.tsOrder {
		if nd < n && pos[nd] == -1 {
			pos[nd] = next
			next++
		}
	}
	for i := range pos {
		if pos[i] == -1 {
			pos[i] = next
			next++
		}
	}
	return pos
}

// tsOrderPositions maps the maintained order to per-node positions for
// the constants-forward check; nodes outside the order get -1.
func (inc *Incremental) tsOrderPositions(n int32) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, nd := range inc.tsOrder {
		if nd < n {
			pos[nd] = int32(i)
		}
	}
	return pos
}
