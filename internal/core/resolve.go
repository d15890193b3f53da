// Sound pre-solve constraint resolution.
//
// The known BC-graph alone often decides most constraints: whenever it
// already implies a path u ⇝ v, any constraint side containing the reverse
// edge v→u would close a cycle, so that side is dead and the other side is
// forced — no SAT search required (PolySI's known-graph pruning, pushed to
// a fixpoint like Vbox). The §3.5 heuristic pruning in attempt() guesses
// and must retry when wrong; this pass only ever derives consequences, so
// everything it resolves is exact and permanent.
//
// Machinery: a transitive closure of the known graph as one packed bitset
// row per node (rows[u].Has(v) ⟺ u ⇝ v), built level-by-level in parallel
// — level(u) = 1 + max over successors, so rows within one level never
// depend on each other and shard freely across the worker pool — then a
// worklist fixpoint over the constraints. A side is dead iff one of its
// edges u→v has v ⇝ u in the closure; edges with u ⇝ v are implied and
// elided (adding an implied edge can never create a cycle that was not
// already there, the same argument the construction replay's applyOp
// uses to drop edges the knownSet already contains). A dead side forces the other: its edges are
// appended to the known graph and staged into the closure's adjacency;
// once per fixpoint pass the closure rebuilds (one row merge per edge,
// parallel) and the constraints are swept again. A forced edge that is
// itself dead closes a cycle among must-hold edges — an immediate
// rejection, with the shortest known-edge path as the witness.
package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"viper/internal/bitset"
	"viper/internal/history"
	"viper/internal/sat"
)

// closureByteBudget caps the closure matrix: n rows of Words(cap) packed
// words. Past this the pass is skipped entirely (resolution is an
// optimization; correctness never depends on it). 128 MiB admits ~32k
// nodes — an order of magnitude past the paper's workload sizes.
const closureByteBudget = 128 << 20

// closureFeasible reports whether an n-node closure with row capacity capN
// fits the byte budget.
func closureFeasible(n, capN int) bool {
	return n > 0 && int64(n)*int64(bitset.Words(capN))*8 <= closureByteBudget
}

// closure is the bitset transitive closure of a growing DAG. Rows are
// indexed and bit-positioned by node id (stable under Pearce–Kelly
// reorderings); sinks keep nil rows. The adjacency lists (out/in) hold the
// folded-in edges and drive both incremental propagation and witness
// extraction.
type closure struct {
	n    int // nodes covered
	capN int // row bit capacity (n may grow up to capN without restriding)
	rows []bitset.Set
	out  [][]int32
	in   [][]int32

	edges int // edges folded in
}

// newClosure returns an empty closure over n nodes with row capacity capN
// (>= n; the slack lets a warm session grow without rebuilding).
func newClosure(n, capN int) *closure {
	return &closure{
		n:    n,
		capN: capN,
		rows: make([]bitset.Set, n),
		out:  make([][]int32, n),
		in:   make([][]int32, n),
	}
}

// grow extends the closure to cover n nodes (empty rows), reporting
// whether the row capacity admits them; on false the owner must rebuild
// with a larger capacity.
func (c *closure) grow(n int) bool {
	if n > c.capN {
		return false
	}
	for len(c.rows) < n {
		c.rows = append(c.rows, nil)
		c.out = append(c.out, nil)
		c.in = append(c.in, nil)
	}
	c.n = n
	return true
}

// row materializes u's row.
func (c *closure) row(u int32) bitset.Set {
	if c.rows[u] == nil {
		c.rows[u] = bitset.New(c.capN)
	}
	return c.rows[u]
}

// reaches reports whether a nonempty known path u ⇝ v exists.
func (c *closure) reaches(u, v int32) bool {
	r := c.rows[u]
	return r != nil && r.Has(v)
}

// bytes reports the closure's matrix footprint: every materialized row
// holds Words(capN) packed words. This backs Report.ClosureBytes — the
// quantity checkpointing keeps proportional to the live window.
func (c *closure) bytes() int64 {
	rows := int64(0)
	for _, r := range c.rows {
		if r != nil {
			rows++
		}
	}
	return rows * int64(bitset.Words(c.capN)) * 8
}

// addArc records the edge in the adjacency lists without propagating
// reachability; used to stage edges before a full build.
func (c *closure) addArc(u, v int32) {
	c.out[u] = append(c.out[u], v)
	c.in[v] = append(c.in[v], u)
	c.edges++
}

// build computes every row from the staged adjacency. order must be a
// topological order of the staged graph. Rows are grouped by level —
// level(u) = 1 + max level among successors, so every row a level-L node
// ORs over is finished before level L starts — and each level's rows are
// filled by a worker pool claiming rows from an atomic cursor. Bitwise OR
// is commutative and rows within a level are disjoint, so the result is
// schedule-independent.
func (c *closure) build(order []int32, workers int) {
	n := c.n
	lvl := make([]int32, n)
	maxLvl := int32(0)
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		l := int32(0)
		for _, v := range c.out[u] {
			if lv := lvl[v] + 1; lv > l {
				l = lv
			}
		}
		lvl[u] = l
		if l > maxLvl {
			maxLvl = l
		}
	}
	buckets := make([][]int32, maxLvl+1)
	for u := int32(0); u < int32(n); u++ {
		if len(c.out[u]) == 0 {
			continue // sinks: empty rows stay nil
		}
		buckets[lvl[u]] = append(buckets[lvl[u]], u)
	}

	for _, bucket := range buckets {
		// Tiny levels are not worth the goroutine round trip.
		if workers <= 1 || len(bucket) < 4*workers {
			for _, u := range bucket {
				c.fill(u)
			}
			continue
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(bucket) {
						return
					}
					c.fill(bucket[i])
				}
			}()
		}
		wg.Wait()
	}
}

// fill recomputes u's row from scratch — zeroing whatever was there, then
// ORing in its successors' (already final) rows — so neither build nor
// refresh needs a separate pass over the matrix to clear stale bits.
func (c *closure) fill(u int32) {
	row := c.row(u)
	for i := range row {
		row[i] = 0
	}
	for _, v := range c.out[u] {
		row.Add(v)
		if rv := c.rows[v]; rv != nil {
			row.UnionWith(rv)
		}
	}
}

// refresh recomputes only the rows staged arcs can have changed — the arc
// sources and their ancestors — leaving every other row untouched. order
// must be a topological order of the augmented graph. Returns false
// (without touching any row) when most rows are dirty anyway: the caller
// should reset and run the parallel full build instead, which fills level
// by level rather than serially.
func (c *closure) refresh(order []int32, srcs []int32) bool {
	dirty := make([]bool, c.n)
	queue := make([]int32, 0, len(srcs))
	count := 0
	for _, s := range srcs {
		if !dirty[s] {
			dirty[s] = true
			count++
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, p := range c.in[queue[head]] {
			if !dirty[p] {
				dirty[p] = true
				count++
				queue = append(queue, p)
			}
		}
	}
	if count > c.n/2 {
		return false
	}
	// Reverse topological order: a dirty node's successors — dirty or not —
	// are final before it is recomputed.
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if dirty[u] && len(c.out[u]) > 0 {
			c.fill(u)
		}
	}
	return true
}

// topoOrder returns a topological order of the staged adjacency (Kahn's
// algorithm), with ok=false when the graph has a directed cycle.
func (c *closure) topoOrder() (order []int32, ok bool) {
	indeg := make([]int32, c.n)
	for u := 0; u < c.n; u++ {
		for _, v := range c.out[u] {
			indeg[v]++
		}
	}
	order = make([]int32, 0, c.n)
	for u := int32(0); u < int32(c.n); u++ {
		if indeg[u] == 0 {
			order = append(order, u)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range c.out[order[head]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == c.n
}

// findCycle returns one directed cycle of the staged adjacency as a node
// sequence [x0 … xk] with the implicit closing edge xk→x0, or nil when the
// graph is acyclic. Only called after topoOrder failed, so off the hot
// path.
func (c *closure) findCycle() []int32 {
	const (
		white = uint8(0)
		grey  = uint8(1)
		black = uint8(2)
	)
	color := make([]uint8, c.n)
	parent := make([]int32, c.n)
	type frame struct {
		u int32
		i int
	}
	for s := int32(0); s < int32(c.n); s++ {
		if color[s] != white {
			continue
		}
		color[s] = grey
		parent[s] = -1
		stack := []frame{{s, 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i >= len(c.out[f.u]) {
				color[f.u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := c.out[f.u][f.i]
			f.i++
			switch color[v] {
			case white:
				color[v] = grey
				parent[v] = f.u
				stack = append(stack, frame{v, 0})
			case grey:
				// Back edge f.u→v: the grey path v … f.u is the cycle.
				var rev []int32
				for x := f.u; x != v; x = parent[x] {
					rev = append(rev, x)
				}
				rev = append(rev, v)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
		}
	}
	return nil
}

// path returns a shortest folded-edge path from u to v as a node sequence
// [u … v], or nil if none exists. Only called to extract a cycle witness
// after a must-hold edge v→u closed a cycle, so allocation here is off the
// hot path.
func (c *closure) path(u, v int32) []int32 {
	if u == v {
		return []int32{u}
	}
	prev := make([]int32, c.n)
	for i := range prev {
		prev[i] = -1
	}
	queue := []int32{u}
	prev[u] = u
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range c.out[x] {
			if prev[y] != -1 {
				continue
			}
			prev[y] = x
			if y == v {
				var rev []int32
				for cur := v; cur != u; cur = prev[cur] {
					rev = append(rev, cur)
				}
				rev = append(rev, u)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, y)
		}
	}
	return nil
}

// resolveResult is the outcome of the batch pre-solve pass.
type resolveResult struct {
	kept     []Constraint // constraints the solver still has to decide
	keptAt   []int32      // each kept constraint's index in the input
	resolved int          // constraints discharged without the solver
	forced   []KnownEdge  // edges appended to the known graph by forcing
	cycle    []KnownEdge  // non-nil: must-hold edges close a cycle (reject)
}

// maxResolvePasses bounds the sweep/fold fixpoint; every productive pass
// discharges at least one constraint, so termination never depends on the
// cap — it only guards pathological chain-of-forcing histories from
// quadratic sweep cost. Within the cap the loops ration *folds*, not
// passes: staged batches up to resolveCheapBatch always fold (a refresh
// of that few sources is near-free), while a larger batch costs a real
// closure rebuild and is only worth it early — the batch path allows two
// such rebuilds and then only while the previous pass discharged at least
// 1/resolveGainFloor of the constraints; the warm path defers the batch
// to the next audit's fold instead (see resolveWarm). Constraints still
// live at the stop simply go to the solver — the pass is an optimization,
// never load-bearing.
const (
	maxResolvePasses  = 64
	resolveGainFloor  = 50 // reciprocal: a pass must discharge >= 2% to justify a rebuild
	resolveCheapBatch = 64 // staged batches this small always fold (refresh is near-free)
)

// resolvePolygraph runs the sound resolution fixpoint for the batch path
// over consIn (usually pg.Cons; the timestamp fast path passes just its
// residue — forcing from a constraint subset is still exact, every
// forced edge holds in every compatible graph of the full polygraph).
// out is the known graph's adjacency (it is extended in place with forced
// edges, so the caller can re-derive a topological order afterwards);
// order is a topological order of it. Returns nil when the pass declined
// to run (closure over budget) or ctx expired mid-pass — the caller then
// proceeds exactly as before the pass existed.
func resolvePolygraph(ctx context.Context, pg *Polygraph, consIn []Constraint, out [][]int32, order []int32, workers int) *resolveResult {
	n := int(pg.NumNodes)
	if !closureFeasible(n, n) {
		return nil
	}
	cl := newClosure(n, n)
	// Adopt the caller's adjacency: build needs in-lists too.
	cl.out = out
	for u := int32(0); u < int32(n); u++ {
		for _, v := range out[u] {
			cl.in[v] = append(cl.in[v], u)
		}
	}
	cl.edges = len(pg.Known)
	cl.build(order, workers)

	res := &resolveResult{}
	cons := make([]Constraint, len(consIn))
	copy(cons, consIn)
	alive := make([]bool, len(cons))
	for i := range alive {
		alive[i] = true
	}

	// edgeKinds lazily indexes edge provenance for witness rendering —
	// only the rejection paths pay for it, never a clean accept.
	edgeKinds := func() *knownIndex {
		all := make([]KnownEdge, 0, len(pg.Known)+len(res.forced))
		return indexKnown(append(append(all, pg.Known...), res.forced...))
	}

	// conflict renders the rejection witness: the shortest known path
	// e.To ⇝ e.From plus the must-hold closing edge e.
	conflict := func(e Edge, kind EdgeKind, key history.Key) {
		res.cycle = cycleEvidence(cl.path(e.To, e.From), KnownEdge{Edge: e, Kind: kind, Key: key}, edgeKinds())
	}

	// forceSide appends a dead side's counterpart to the known graph,
	// staging it into the adjacency only; reachability catches up with one
	// parallel rebuild per pass. (Per-edge reverse-BFS patching is
	// quadratic when forcing cascades — thousands of forced edges each
	// re-merging thousands of ancestor rows — while a rebuild costs one
	// merge per edge.) A forced edge the closure already proves dead closes
	// a must-hold cycle: rejection. Conflicts are checked against the
	// possibly-stale closure, whose reachability under-approximates the
	// staged graph's, so any conflict found is genuine; a cycle closed
	// purely by this pass's staged edges surfaces at rebuild time, when the
	// topological sort fails.
	staged := 0
	stagedSet := make(map[Edge]bool)
	var stagedSrcs []int32
	forceSide := func(side []Edge, kind EdgeKind, key history.Key) bool {
		for _, e := range side {
			if e.From == e.To || cl.reaches(e.From, e.To) {
				continue // already implied (known edges included) — adds nothing
			}
			if cl.reaches(e.To, e.From) {
				conflict(e, kind, key)
				return false
			}
			if stagedSet[e] {
				continue // staged since the last rebuild
			}
			stagedSet[e] = true
			res.forced = append(res.forced, KnownEdge{Edge: e, Kind: kind, Key: key})
			cl.addArc(e.From, e.To)
			stagedSrcs = append(stagedSrcs, e.From)
			staged++
		}
		return true
	}

	// evalSide classifies one side against the closure: dead (some edge
	// closes a cycle — deadEdge is the witness), or live with implied edges
	// elided (copy-on-filter: sides may alias the session's record store).
	evalSide := func(side []Edge) (deadEdge *Edge, kept []Edge) {
		for idx := range side {
			e := side[idx]
			if cl.reaches(e.To, e.From) {
				return &side[idx], nil
			}
			if cl.reaches(e.From, e.To) {
				kept = make([]Edge, idx, len(side))
				copy(kept, side[:idx])
				for j := idx + 1; j < len(side); j++ {
					rest := side[j]
					if cl.reaches(rest.To, rest.From) {
						return &side[j], nil
					}
					if !cl.reaches(rest.From, rest.To) {
						kept = append(kept, rest)
					}
				}
				return nil, kept
			}
		}
		return nil, side
	}

	prevResolved := 0
	for pass := 0; pass < maxResolvePasses; pass++ {
		if ctx.Err() != nil {
			return nil // budget spent mid-pass: fall back to the plain attempt
		}
		for i := range cons {
			if !alive[i] {
				continue
			}
			c := &cons[i]
			fDead, f := evalSide(c.First)
			sDead, s := evalSide(c.Second)
			switch {
			case fDead != nil && sDead != nil:
				// Neither side can hold: unsatisfiable, with the first side's
				// dead edge closing the witness cycle.
				conflict(*fDead, c.Kind1, c.Key)
				return res
			case fDead != nil:
				alive[i] = false
				res.resolved++
				if !forceSide(s, c.Kind2, c.Key) {
					return res
				}
			case sDead != nil:
				alive[i] = false
				res.resolved++
				if !forceSide(f, c.Kind1, c.Key) {
					return res
				}
			case len(f) == 0 || len(s) == 0:
				// One side is fully implied by known paths: the constraint
				// imposes nothing (any model extends with the implied side, and
				// implied edges can never create a new cycle).
				alive[i] = false
				res.resolved++
			default:
				c.First, c.Second = f, s
			}
		}
		if staged == 0 {
			break // nothing new reachable: the sweep is at fixpoint
		}
		gain := res.resolved - prevResolved
		prevResolved = res.resolved
		if staged > resolveCheapBatch && (pass >= 2 || gain < 1+len(cons)/resolveGainFloor) {
			break // diminishing returns: hand the tail to the solver
		}
		// Validate the augmented graph before anything else: a failed
		// topological sort means this pass's forced edges closed a cycle
		// among must-hold edges that the stale closure could not see.
		order, ok := cl.topoOrder()
		if !ok {
			cyc := cl.findCycle()
			closing := Edge{From: cyc[len(cyc)-1], To: cyc[0]}
			kinds := edgeKinds()
			res.cycle = cycleEvidence(cyc, kinds.provenance(closing), kinds)
			return res
		}
		if !cl.refresh(order, stagedSrcs) {
			cl.build(order, workers)
		}
		staged = 0
		stagedSrcs = stagedSrcs[:0]
	}

	res.kept = make([]Constraint, 0, len(cons)-res.resolved)
	res.keptAt = make([]int32, 0, len(cons)-res.resolved)
	for i := range cons {
		if alive[i] {
			res.kept = append(res.kept, cons[i])
			res.keptAt = append(res.keptAt, int32(i))
		}
	}
	return res
}

// Warm-path resolution states of a constraint (warmState.state). Forced
// states are permanent: the other side closes a cycle against the
// constant closure, and constants only accrue, so the forced side's edges
// (present and future) are consequences and enter the theory as
// constants. Implied states are provisional: the discharged side's edges
// are all implied by constant paths *today*, but the side lists grow
// across audits, so each audit revalidates and reverts the state if a
// non-implied edge arrived.
const (
	consLive uint8 = iota
	consForcedFirst
	consForcedSecond
	consImpliedFirst
	consImpliedSecond
)

// resolveWarm runs the sound resolution fixpoint against the warm
// session's persistent solver, theory, and closure. It revalidates
// carried-over discharges (forced sides may have grown new edges that must
// become constants; implied sides may have grown edges that void the
// discharge), then sweeps the live constraints to a fixpoint. Returns a
// known-edge cycle witness when resolution proves the history rejected
// (a constraint with both sides dead, or a forced edge closing a constant
// cycle); nil otherwise.
func resolveWarm(w *warmState, workers int) []KnownEdge {
	cl := w.cl
	var witness []KnownEdge

	// Forced edges stage into the adjacency and the theory immediately;
	// the closure rows catch up lazily. Small staged batches fold mid-audit
	// with a refresh (the theory's Pearce–Kelly order is the topological
	// order); large batches are deferred — their sources carry over in
	// clPending and the next audit's single fold absorbs them, so one big
	// forcing cascade never costs more than one closure build per audit.
	// Until a fold the rows under-approximate the staged graph — sound
	// everywhere they are read, and InsertConstantPath detects exactly the
	// cycles the stale rows might miss.
	staged := 0
	var stagedSrcs []int32
	defer func() {
		if staged > 0 {
			w.clPending = append(w.clPending, stagedSrcs...)
		}
	}()
	rebuild := func() {
		order := make([]int32, cl.n)
		for i := int32(0); i < int32(cl.n); i++ {
			order[w.th.Order(i)] = i
		}
		if !cl.refresh(order, stagedSrcs) {
			cl.build(order, workers)
		}
		staged = 0
		stagedSrcs = stagedSrcs[:0]
	}

	dead := func(side []Edge) *Edge {
		for i, e := range side {
			if cl.reaches(e.To, e.From) {
				return &side[i]
			}
		}
		return nil
	}
	allImplied := func(side []Edge) bool {
		for _, e := range side {
			if !cl.reaches(e.From, e.To) {
				return false
			}
		}
		return true
	}
	conflict := func(e Edge, kind EdgeKind, key history.Key) {
		witness = cycleEvidence(cl.path(e.To, e.From), KnownEdge{Edge: e, Kind: kind, Key: key}, &w.known)
	}
	// forceSide turns a side's not-yet-implied edges into theory constants,
	// staging each into the closure adjacency. Safe to re-run on a grown
	// side: already-constant edges are skipped via known.
	forceSide := func(side []Edge, kind EdgeKind, key history.Key) bool {
		for _, e := range side {
			if e.From == e.To || w.known.has(e) {
				continue
			}
			if cl.reaches(e.From, e.To) {
				continue // implied by constants — holds for free
			}
			if cl.reaches(e.To, e.From) {
				conflict(e, kind, key)
				return false
			}
			path, ok := w.th.InsertConstantPath(e.From, e.To)
			if !ok {
				witness = cycleEvidence(path, KnownEdge{Edge: e, Kind: kind, Key: key}, &w.known)
				return false
			}
			w.known.add(KnownEdge{Edge: e, Kind: kind, Key: key})
			cl.addArc(e.From, e.To)
			stagedSrcs = append(stagedSrcs, e.From)
			staged++
			w.forcedEdges++
		}
		return true
	}

	// Revalidate discharges carried over from earlier audits.
	for i := range w.cons {
		c := &w.cons[i]
		switch w.state[i] {
		case consForcedFirst:
			if !forceSide(c.First, c.Kind1, c.Key) {
				return witness
			}
		case consForcedSecond:
			if !forceSide(c.Second, c.Kind2, c.Key) {
				return witness
			}
		case consImpliedFirst:
			if !allImplied(c.First) {
				w.state[i] = consLive
				w.resolved--
			}
		case consImpliedSecond:
			if !allImplied(c.Second) {
				w.state[i] = consLive
				w.resolved--
			}
		}
	}

	// Fixpoint sweep: scan the live constraints; forcing extends
	// reachability, which can make other constraints resolvable, so passes
	// repeat until one stages nothing and discharges nothing. Cascades
	// small enough for a cheap refresh fold mid-audit and keep the loop
	// going; a large cascade ends the audit's fixpoint instead — its arcs
	// carry over in clPending, the constraints it would have discharged go
	// to the solver once, and the next audit's fold picks the cascade up.
	// That bounds resolution at one closure build per audit no matter how
	// deep the forcing runs.
	for pass := 0; pass < maxResolvePasses; pass++ {
		if staged > 0 {
			if staged > resolveCheapBatch {
				return nil // deferred: the exit hook carries stagedSrcs over
			}
			rebuild()
		}
		progress := false
		for i := range w.cons {
			if w.state[i] != consLive {
				continue
			}
			c := &w.cons[i]
			fDead, sDead := dead(c.First), dead(c.Second)
			switch {
			case fDead != nil && sDead != nil:
				conflict(*fDead, c.Kind1, c.Key)
				return witness
			case fDead != nil:
				w.state[i] = consForcedSecond
				w.resolved++
				progress = true
				if sel := w.sel[i]; sel != sat.LitUndef {
					// ¬sel is a consequence (sel would force the dead side):
					// a permanent unit clause.
					w.s.AddClause(sel.Neg())
				}
				if !forceSide(c.Second, c.Kind2, c.Key) {
					return witness
				}
			case sDead != nil:
				w.state[i] = consForcedFirst
				w.resolved++
				progress = true
				if sel := w.sel[i]; sel != sat.LitUndef {
					w.s.AddClause(sel)
				}
				if !forceSide(c.First, c.Kind1, c.Key) {
					return witness
				}
			case allImplied(c.First):
				w.state[i] = consImpliedFirst
				w.resolved++
				progress = true
			case allImplied(c.Second):
				w.state[i] = consImpliedSecond
				w.resolved++
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
	return nil // pass cap: the deferred clDirty has the next audit rebuild
}

// sortedEdgeList returns the known edges sorted by (From, To), the order
// in which warm closure rebuilds add their arcs.
func sortedEdgeList(known []KnownEdge) []Edge {
	edges := make([]Edge, len(known))
	for i, ke := range known {
		edges[i] = ke.Edge
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}
