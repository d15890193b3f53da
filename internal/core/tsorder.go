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
// A warm session audit runs the same classification and pass loop on its
// carried solver (see incremental.go). Its ŝ is the events sorted by
// (timestamp, node id) once per audit whenever every constant runs forward
// in that order — exactly the order the one-shot check's topological sort
// yields then — and the theory's maintained order otherwise.
package core

import (
	"cmp"
	"fmt"
	"slices"

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

// tsClassify is one near-linear pass over set's constraints: decided
// constraints go to chosen as indices into set.cons (2·index + side, side
// 1 for the second), the rest to residual (cons and at only). A side with
// every edge strictly drift-implied is settled; exactly one settled side
// decides the constraint. Both-sides-settled — possible only with
// inconsistent cross-transaction timestamps — is deliberately residual:
// the solver, not the clock, owns contradictions.
type tsClassified struct {
	decided  int
	residual consSet
	chosen   []int32
}

func (pg *Polygraph) tsClassify(set consSet, drift int64) tsClassified {
	settled := func(side []Edge) bool {
		for _, e := range side {
			if pg.nodeTS[e.To]-pg.nodeTS[e.From] <= drift {
				return false
			}
		}
		return true
	}
	out := tsClassified{chosen: make([]int32, 0, len(set.cons))}
	for i, c := range set.cons {
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
			out.residual.at = append(out.residual.at, set.at[i])
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

// tsSchedule returns the positions of pg's nodes sorted by (timestamp,
// node id). When every known edge runs forward in it, it is the order the
// heuristic topological sort (solveRun.less) derives.
func (pg *Polygraph) tsSchedule() []int32 {
	order := make([]int32, pg.NumNodes)
	for i := range order {
		order[i] = int32(i)
	}
	ts := pg.nodeTS
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(ts[a], ts[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return positionsOf(order)
}

// constantsForward reports whether every constant edge runs forward in
// pos. With every constant forward, every closure path over constants is
// forward too, so resolution-implied constraint sides need no separate
// check.
func constantsForward(known []KnownEdge, pos []int32) bool {
	for _, e := range known {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}
