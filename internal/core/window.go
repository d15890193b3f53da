// Near-window construction: §3.5's passes, moved into construction.
//
// Heuristic pruning (check.go's solveRun.pass) forces every constraint
// with a side running k or more positions backward in the schedule ŝ to
// its other side. On unstamped input nearly every writer pair of a key is
// such a constraint, so building, resolving and asserting them all costs
// far more than deciding the few the pass leaves to the solver. A cold
// audit with no timestamp stage ahead (stamps unusable, or
// Options.DisableTSFastPath) therefore builds only what the pass about to
// run can encode, in two per-key passes over the session's indexes:
//
//  1. The known graph: every key's read-dependency edges and the known
//     part of its emissions (Polygraph.keyKnown), replayed into the shell
//     with intra, session and real-time edges exactly as the full path
//     replays them, so the known graph is the full polygraph's, edge for
//     edge and in the same order. One topological sort of it under
//     solveRun.less is ŝ; a cycle rejects right there, naming the cycle
//     the full path names.
//  2. The window pairs: per key, the non-genesis chains sorted by the ŝ
//     position of their head's begin. Chain i's extent ends at the latest
//     of its tail's commit and the begins of its tail's readers; pair
//     (i, j) is built only if j's head begins less than k positions after
//     that end (k = Options.InitialK; with pruning off, k is 0 and every
//     pair is built). Every other pair has its "i before j" side running
//     forward in ŝ and its other side running at least k positions
//     backward (tail j commits after head j begins, and head i begins
//     before its extent ends), so the first pass over the full polygraph
//     would force it forward. That is O(W·window) pairs per key instead
//     of O(W²).
//
// The window polygraph then goes through the one-shot check's stages
// (solveRun.check), seeded with ŝ. A pass fails when it is Unsat under its
// batch or when its witness fails replay; the next runs at radius 2k, and
// the window first widens to 2k (every remaining pair before the exact
// pass), so each pass sees every pair within its radius. The full
// polygraph is the window at radius 0. The verdict:
//
//   - Accept at a radius k > 0 only once VerifyWitness has replayed the
//     witness (solveRun.accept): Theorem 4's schedule check, NoConflict
//     included, so the accept stands without the pairs the window left
//     out. At radius 0 every pair is built, and a model is exact.
//   - Reject on a refutation. Every window constraint is a constraint of
//     the full polygraph, at most with known edges dropped from its sides
//     (the replay filters sides against the whole known graph, and a
//     known edge holds in every compatible graph), so a polygraph with no
//     compatible acyclic graph has a superset with none either. Its
//     evidence comes from the window polygraph.
//   - A timeout stays a timeout.
//
// k doubles until the exact pass, so completeness is the full polygraph's.
// The stage writes nothing to the record store: dirty keys stay dirty, so
// a session's next warm audit regenerates them.
package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"viper/internal/history"
)

// windowed reports whether a cold audit takes the window stage: no
// timestamp stage will run.
func (inc *Incremental) windowed() bool {
	if inc.opts.DisableTSFastPath {
		return true
	}
	usable, _ := tsUsable(inc.h)
	return !usable
}

// auditWindow runs a cold audit through the window stage, inside one
// window span. Construction runs from constructStart.
func (inc *Incremental) auditWindow(ctx context.Context, constructStart time.Time) *Report {
	opts := inc.obsOpts()
	reg := opts.Tracer.Start("window")
	rep := inc.checkWindow(ctx, opts, constructStart)
	reg.SetAttr("constraints", int64(rep.Constraints))
	reg.SetAttr("outcome", int64(rep.Outcome))
	reg.End()
	return rep
}

// checkWindow builds the window polygraph and checks it.
func (inc *Incremental) checkWindow(ctx context.Context, opts Options, constructStart time.Time) *Report {
	h := inc.h
	w := &window{
		lite:     &Polygraph{ser: inc.ser()},
		keys:     h.Keys(),
		readers:  inc.readers,
		coalesce: !opts.DisableCoalesce,
		workers:  opts.workers(),
	}
	combine := !opts.DisableCombineWrites

	// Pass 1: the known graph.
	known := make([]*KeyRecord, len(w.keys))
	chains := make([]keyChains, len(w.keys))
	wall, cpu := forEachKey(len(w.keys), w.workers, func(i int) {
		writers := inc.writers[w.keys[i]]
		if len(writers) == 0 {
			return // never-written keys have nothing to emit
		}
		byWriter := inc.readers[w.keys[i]]
		rec := &KeyRecord{}
		recordReadDeps(w.lite, byWriter, rec)
		kc := w.lite.keyChains(writers, byWriter, combine)
		kr := keyRecorder{pg: w.lite, rec: rec}
		kr.reserve(kc.knownOps(byWriter), 0)
		w.lite.keyKnown(w.keys[i], kc, byWriter, kr)
		known[i], chains[i] = rec, kc
	})
	w.pg = assemblePolygraph(h, opts, known)

	// ŝ, once; a cyclic known graph rejects before any pair exists.
	r := newSolveRun(w.pg, opts, solveDeadline(ctx, opts))
	booked := func() {
		construct := time.Since(constructStart)
		r.rep.Phases.Construct = construct
		r.rep.Phases.ConstructCPU = construct - wall + cpu
		r.rep.ConstructWorkers = w.workers
	}
	order, ok := r.schedule()
	if !ok {
		booked()
		return r.rep
	}

	// Pass 2: the pairs within the first pass's radius.
	w.extents(chains, positionsOf(order))
	r.radius = opts.firstK()
	wall2, cpu2 := w.widen(r.radius)
	wall, cpu = wall+wall2, cpu+cpu2
	booked()

	// A pass that fails widens the window to the next pass's radius first:
	// every pass sees every pair within its radius.
	r.grow = func(k int) {
		start := time.Now()
		wall, cpu := w.widen(k)
		d := time.Since(start)
		r.rep.Phases.Construct += d
		r.rep.Phases.ConstructCPU += d - wall + cpu
	}
	r.check(ctx, order)
	if r.radius == 0 {
		// An accept over every pair replayed nothing: self-check it like
		// the full path's.
		r.rep.selfCheck(w.pg, opts)
	}
	return r.rep
}

// window is the window polygraph under construction: pass 2's per-key
// state, kept across widenings.
type window struct {
	pg       *Polygraph
	lite     *Polygraph // the node mapping, shared read-only across workers
	keys     []history.Key
	readers  map[history.Key]map[history.TxnID][]history.TxnID
	coalesce bool
	workers  int
	// ext holds each key's non-genesis chains sorted by their head's
	// begin in ŝ (nil for keys with fewer than two).
	ext [][]extent
}

// extents sorts every key's non-genesis chains by their head's begin in
// ŝ (pos) and measures their extents.
func (w *window) extents(chains []keyChains, pos []int32) {
	pg := w.lite
	w.ext = make([][]extent, len(w.keys))
	for i, kc := range chains {
		if len(kc.real) < 2 {
			continue
		}
		byWriter := w.readers[w.keys[i]]
		ext := chainExtents(kc.real, byWriter)
		for j := range ext {
			e := &ext[j]
			e.begin, e.end = pos[pg.Begin(e.ch.head())], pos[pg.Commit(e.ch.tail())]
			for _, r := range byWriter[e.ch.tail()] {
				e.end = max(e.end, pos[pg.Begin(r)])
			}
		}
		sort.Slice(ext, func(a, b int) bool { return ext[a].begin < ext[b].begin })
		w.ext[i] = ext
	}
}

// widen builds every key's chain pairs within radius k of each other in ŝ
// that a narrower radius did not build — every remaining pair when k is 0,
// the exact pass — and appends them to the polygraph in key order. Pair
// (i, j), i's head beginning first, lies within radius k when j's head
// begins less than k positions after i's extent ends. It returns the
// recording's wall time and summed per-goroutine busy time.
func (w *window) widen(k int) (wall, cpu time.Duration) {
	recs := make([]*KeyRecord, len(w.keys))
	wall, cpu = forEachKey(len(w.keys), w.workers, func(i int) {
		if w.ext[i] != nil {
			recs[i] = w.lite.keyWindow(w.keys[i], w.ext[i], w.readers[w.keys[i]], k, w.coalesce)
		}
	})
	w.pg.replayConstraints(w.keys, recs)
	return wall, cpu
}

// keyWindow records the constraints of one key's chain pairs that lie
// within radius k (0: any distance) and are not yet built (recordPairs)
// into a record of their own; nil when there are none.
func (pg *Polygraph) keyWindow(key history.Key, ext []extent, byWriter map[history.TxnID][]history.TxnID, k int, coalesce bool) *KeyRecord {
	ops, edges := pairsSize(ext, k, coalesce)
	if ops == 0 {
		return nil
	}
	rec := &KeyRecord{}
	kr := keyRecorder{pg: pg, rec: rec}
	kr.reserve(ops, edges)
	pg.recordPairs(key, ext, byWriter, k, coalesce, kr)
	return rec
}

// replayConstraints appends per-key constraint records (indexed like
// keys; nil contributes nothing) to the polygraph in key order, filtering
// their sides against the finished known graph (applyOp).
func (pg *Polygraph) replayConstraints(keys []history.Key, recs []*KeyRecord) {
	n := len(pg.Cons)
	for _, rec := range recs {
		if rec != nil {
			n += len(rec.Ops)
		}
	}
	pg.Cons = slices.Grow(pg.Cons, n-len(pg.Cons))
	for i, rec := range recs {
		if rec != nil {
			for j := range rec.Ops {
				pg.applyOp(&rec.Ops[j], keys[i])
			}
		}
	}
	pg.nilIfEmpty()
}
