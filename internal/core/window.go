// Near-window construction: the one cold construction, with §3.5's
// passes moved into it.
//
// Every cold audit — a one-shot check, Build, a session's first audit,
// and every audit at a level without a warm path (Incremental.warmCapable)
// — builds its polygraph here, in two per-key passes over the session's indexes, and its first
// radius k says how much of it: 0, every writer pair, when a timestamp
// stage will run (it decides constraints against the stamps), and
// Options.firstK otherwise (stamps unusable, or
// Options.DisableTSFastPath). Heuristic pruning (check.go's
// solveRun.pass) forces every constraint with a side running k or more
// positions backward in the schedule ŝ to its other side. On unstamped
// input nearly every writer pair of a key is such a constraint, so
// building, resolving and asserting them all costs far more than deciding
// the few the pass leaves to the solver; the window builds only what the
// pass about to run can encode.
//
//  1. The known graph: every key's read-dependency edges and the known
//     part of its emissions (Polygraph.keyKnown), assembled in key order
//     with intra, session and real-time edges (assemblePolygraph). One
//     topological sort of it under solveRun.less is ŝ; a cycle rejects
//     right there, with every constraint of radius 0 built (pass 2 runs
//     before the sort at radius 0, which needs no ŝ) and none otherwise.
//  2. The pairs: per key, the non-genesis chains, in chain order at
//     radius 0 and otherwise sorted by the ŝ position of their head's
//     begin. Chain i's extent ends at the latest of its tail's commit and
//     the begins of its tail's readers; pair (i, j) is built only if j's
//     head begins less than k positions after that end (every pair at
//     k = 0). Every other pair has its "i before j" side running forward
//     in ŝ and its other side running at least k positions backward (tail
//     j commits after head j begins, and head i begins before its extent
//     ends), so the first pass over the full polygraph would force it
//     forward. That is O(W·window) pairs per key instead of O(W²). Each
//     key writes its constraints straight into its own region of the
//     polygraph's Cons, their sides filtered against the finished known
//     set; the regions are compacted in key order.
//
// The window polygraph then goes through the one-shot check's stages
// (solveRun.check), seeded with ŝ. A pass fails when it is Unsat under its
// batch or when its witness fails replay; the next runs at radius 2k, and
// the window first widens to 2k (every remaining pair before the exact
// pass), so each pass sees every pair within its radius. The full
// polygraph (Build) is the window at radius 0. The verdict:
//
//   - Accept at a radius k > 0 only once VerifyWitness has replayed the
//     witness (solveRun.accept): Theorem 4's schedule check, NoConflict
//     included, so the accept stands without the pairs the window left
//     out. At radius 0 every pair is built, and a model is exact.
//   - Reject on a refutation. Every window constraint is a constraint of
//     the full polygraph, so a polygraph with no compatible acyclic graph
//     has a superset with none either. Its evidence comes from the window
//     polygraph.
//   - A timeout stays a timeout.
//
// k doubles until the exact pass, so completeness is the full polygraph's.
// The stage writes no record: dirty keys stay dirty, so a session's next
// warm audit regenerates them.
package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"viper/internal/history"
)

// firstRadius is the radius a cold audit's window is first built to: 0,
// every pair, when a timestamp stage will run, since it decides every
// constraint against the stamps, and the first §3.5 pass's radius
// (Options.firstK) otherwise.
func (inc *Incremental) firstRadius() int {
	if !inc.opts.DisableTSFastPath {
		if usable, _ := tsUsable(inc.h); usable {
			return 0
		}
	}
	return inc.opts.firstK()
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
	w, wall, cpu := inc.newWindow(opts)
	k := inc.firstRadius()
	if k == 0 {
		// Every pair, in chain order, before the sort: radius 0 needs no
		// ŝ, and a reject on a known cycle still counts every constraint.
		wall2, cpu2 := w.widen(0)
		wall, cpu = wall+wall2, cpu+cpu2
	}

	// ŝ, once; a cyclic known graph rejects here.
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

	if k > 0 {
		// Pass 2: the pairs within the first pass's radius of each other
		// in ŝ.
		w.place(positionsOf(order))
		wall2, cpu2 := w.widen(k)
		wall, cpu = wall+wall2, cpu+cpu2
		// A pass that fails widens the window to the next pass's radius
		// first: every pass sees every pair within its radius.
		r.radius = k
		r.grow = func(k int) {
			start := time.Now()
			wall, cpu := w.widen(k)
			d := time.Since(start)
			r.rep.Phases.Construct += d
			r.rep.Phases.ConstructCPU += d - wall + cpu
		}
	}
	booked()
	r.check(ctx, order)
	if r.radius == 0 {
		// An accept over every pair replayed nothing: self-check it.
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
	coalesce bool
	workers  int
	// ext holds each key's non-genesis chains (nil for keys with fewer
	// than two): in chain order after pass 1, and sorted by their head's
	// begin in ŝ once placed.
	ext [][]extent
}

// newWindow runs pass 1 over the session's indexes under opts' worker
// pool: every key's read-dependency edges and the known part of its
// emissions (Polygraph.keyKnown), assembled in key order with the level's
// session and real-time edges, so the window polygraph starts as the
// finished known graph, with no constraint. It returns the pass's wall
// time and summed per-goroutine busy time.
func (inc *Incremental) newWindow(opts Options) (w *window, wall, cpu time.Duration) {
	w = &window{
		lite:     &Polygraph{ser: inc.ser()},
		keys:     inc.h.Keys(),
		coalesce: !opts.DisableCoalesce,
		workers:  opts.workers(),
	}
	combine := !opts.DisableCombineWrites
	known := make([]*KeyRecord, len(w.keys))
	w.ext = make([][]extent, len(w.keys))
	wall, cpu = forEachKey(len(w.keys), w.workers, func(i int) {
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
		known[i] = rec
		if len(kc.real) >= 2 {
			w.ext[i] = chainExtents(kc.real, byWriter)
		}
	})
	w.pg = assemblePolygraph(inc.h, opts, known)
	return w, wall, cpu
}

// place measures every key's extents in ŝ (pos) and sorts them by their
// head's begin.
func (w *window) place(pos []int32) {
	pg := w.lite
	for _, ext := range w.ext {
		for j := range ext {
			e := &ext[j]
			e.begin, e.end = pos[pg.Begin(e.ch.head())], pos[pg.Commit(e.ch.tail())]
			for _, r := range e.readers {
				e.end = max(e.end, pos[pg.Begin(r)])
			}
		}
		sort.Slice(ext, func(a, b int) bool { return ext[a].begin < ext[b].begin })
	}
}

// widen builds every key's chain pairs within radius k of each other that
// a narrower radius did not build — every remaining pair when k is 0,
// the exact pass — straight into the polygraph, in key order. Pair (i,
// j), i's head beginning first, lies within radius k when j's head begins
// less than k positions after i's extent ends. Each key writes its
// constraints into its own region of one Cons slab, sized by pairsSize,
// with its sides in one slab of its own, filtered against the finished
// known set (certain), which no one writes during the pass; the regions
// are then compacted in key order. It returns the pass's wall time and
// summed per-goroutine busy time.
func (w *window) widen(k int) (wall, cpu time.Duration) {
	pg := w.pg
	n := len(pg.Cons)
	// Key i's region is Cons[at[i]:at[i+1]], and its sides take at most
	// edges[i] edges.
	at := make([]int, len(w.keys)+1)
	edges := make([]int, len(w.keys))
	at[0] = n
	for i, ext := range w.ext {
		ops := 0
		if ext != nil {
			ops, edges[i] = pairsSize(ext, k, w.coalesce)
		}
		at[i+1] = at[i] + ops
	}
	if at[len(w.keys)] == n {
		return 0, 0
	}
	pg.Cons = slices.Grow(pg.Cons, at[len(w.keys)]-n)[:at[len(w.keys)]]
	built := make([]int, len(w.keys))
	wall, cpu = forEachKey(len(w.keys), w.workers, func(i int) {
		if at[i+1] > at[i] {
			cw := &consWriter{pg: pg, out: pg.Cons[at[i]:at[i+1]], sides: make([]Edge, 0, edges[i])}
			pg.recordPairs(w.keys[i], w.ext[i], k, w.coalesce, cw)
			built[i] = cw.n
		}
	})
	for i := range w.keys {
		n += copy(pg.Cons[n:], pg.Cons[at[i]:at[i]+built[i]])
	}
	clear(pg.Cons[n:])
	pg.Cons = pg.Cons[:n]
	pg.nilIfEmpty()
	return wall, cpu
}

// consWriter is pass 2's pairSink: it writes one key's constraints into
// out, the key's region of the polygraph's Cons, resolving each side
// through classify into sides, the key's slab, and filtering it against
// the finished known set. pg is only read.
type consWriter struct {
	pg    *Polygraph
	out   []Constraint
	n     int // constraints written to out
	sides []Edge
}

// constraint writes one either/or constraint, unless a side holds
// trivially: every edge of it within one transaction or already known.
func (cw *consWriter) constraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key) {
	a := len(cw.sides)
	f := cw.side(first)
	if f == nil {
		return
	}
	s := cw.side(second)
	if s == nil {
		cw.sides = cw.sides[:a] // the constraint imposes nothing
		return
	}
	cw.out[cw.n] = Constraint{First: f, Second: s, Kind1: kind1, Kind2: kind2, Key: key}
	cw.n++
}

// side resolves one constraint side into the key's slab, dropping edges
// within one transaction and known edges, and returns its capacity-capped
// view, nil when no edge is left.
func (cw *consWriter) side(side []eventEdge) []Edge {
	a := len(cw.sides)
	for _, ee := range side {
		if e, ok := cw.pg.classify(ee.fromT, ee.fromCommit, ee.toT, ee.toCommit); ok && !cw.pg.certain(e) {
			cw.sides = append(cw.sides, e)
		}
	}
	b := len(cw.sides)
	if b == a {
		return nil
	}
	return cw.sides[a:b:b]
}
