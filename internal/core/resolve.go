// Sound pre-solve constraint resolution.
//
// The known BC-graph alone often decides most constraints: whenever it
// already implies a path u ⇝ v, any constraint side containing the reverse
// edge v→u would close a cycle, so that side is dead and the other side is
// forced — no SAT search required (PolySI's known-graph pruning, pushed to
// a fixpoint like Vbox). The §3.5 heuristic pruning in solveRun's passes
// guesses and must retry when wrong; this pass only ever derives
// consequences, so everything it resolves is exact and permanent.
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
//
// resolvePolygraph is the one fixpoint, run in two passes that differ
// only in their budget of large folds (closure rebuilds for a batch of
// more than resolveCheapBatch forced edges). The pre-solve pass takes
// none: a one-shot check reaches it through solveRun.resolve over the
// polygraph's known graph, and a warm session audit over the closure of
// its theory constants, built afresh each audit, making the forced edges
// constants (warmState.resolve). An accept never needs the large folds —
// the solver decides whatever the cheap folds leave — so only a reject
// pays for them: after the solver refutes the polygraph, on either path,
// the evidence pass (solveRun.evidence) reruns the fixpoint with
// resolveLargeFolds over every constraint to name the cycle.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"viper/internal/bitset"
	"viper/internal/history"
)

// closureByteBudget caps the closure matrix: n rows of Words(n) packed
// words. Past this the pass is skipped entirely (resolution is an
// optimization; correctness never depends on it). 128 MiB admits ~32k
// nodes — an order of magnitude past the paper's workload sizes.
const closureByteBudget = 128 << 20

// closureFeasible reports whether an n-node closure fits the byte budget.
func closureFeasible(n int) bool {
	return n > 0 && int64(n)*int64(bitset.Words(n))*8 <= closureByteBudget
}

// closure is the bitset transitive closure of a DAG. Rows are indexed and
// bit-positioned by node id; sinks keep nil rows. The adjacency lists
// (out/in) hold the folded-in edges and drive both incremental
// propagation and witness extraction.
type closure struct {
	n    int // nodes covered, and every row's bit capacity
	rows []bitset.Set
	out  [][]int32
	in   [][]int32
}

// newClosure returns an empty closure over n nodes.
func newClosure(n int) *closure {
	return &closure{
		n:    n,
		rows: make([]bitset.Set, n),
		out:  make([][]int32, n),
		in:   make([][]int32, n),
	}
}

// row materializes u's row.
func (c *closure) row(u int32) bitset.Set {
	if c.rows[u] == nil {
		c.rows[u] = bitset.New(c.n)
	}
	return c.rows[u]
}

// reaches reports whether a nonempty known path u ⇝ v exists.
func (c *closure) reaches(u, v int32) bool {
	r := c.rows[u]
	return r != nil && r.Has(v)
}

// bytes reports the closure's matrix footprint: every materialized row
// holds Words(n) packed words. This backs a warm audit's
// Report.ClosureBytes — the quantity checkpointing keeps proportional to
// the live window.
func (c *closure) bytes() int64 {
	rows := int64(0)
	for _, r := range c.rows {
		if r != nil {
			rows++
		}
	}
	return rows * int64(bitset.Words(c.n)) * 8
}

// addArc records the edge in the adjacency lists without propagating
// reachability; used to stage edges before a full build.
func (c *closure) addArc(u, v int32) {
	c.out[u] = append(c.out[u], v)
	c.in[v] = append(c.in[v], u)
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

// resolveResult is the outcome of the pre-solve pass.
type resolveResult struct {
	kept     []Constraint // constraints the solver still has to decide
	keptAt   []int32      // each kept constraint's index in the input
	resolved int          // constraints discharged without the solver
	forced   []KnownEdge  // edges appended to the known graph by forcing
	cycle    []KnownEdge  // non-nil: must-hold edges close a cycle (reject)
	bytes    int64        // the closure's footprint (closure.bytes)
}

// maxResolvePasses bounds the sweep/fold fixpoint; every productive pass
// discharges at least one constraint, so termination never depends on the
// cap — it only guards pathological chain-of-forcing histories from
// quadratic sweep cost. Within the cap the fixpoint rations *folds*, not
// passes: staged batches up to resolveCheapBatch always fold (a refresh
// of that few sources is near-free), while a larger batch costs a real
// closure rebuild. The caller budgets those large folds (see
// resolvePolygraph); past the budget, or once a sweep discharges less
// than 1/resolveGainFloor of the constraints, a large batch ends the
// fixpoint instead. Constraints still live at the stop simply go to the
// solver — the pass is an optimization, never load-bearing.
const (
	maxResolvePasses  = 64
	resolveGainFloor  = 50 // reciprocal: a pass must discharge >= 2% to justify a rebuild
	resolveCheapBatch = 64 // staged batches this small always fold (refresh is near-free)
	resolveLargeFolds = 2  // the evidence pass's budget of large folds
)

// resolvePolygraph runs the sound resolution fixpoint over consIn (a
// check's constraints, or the timestamp fast path's residue — forcing
// from a constraint subset is still exact, every forced edge holds in
// every compatible graph of the full polygraph). known is the known graph
// with its provenance, out its adjacency (extended in place with forced
// edges, so a caller can re-derive a topological order afterwards), and
// order a topological order of it. largeFolds is the caller's budget of
// large folds: a staged batch of more than resolveCheapBatch edges folds
// only within the fixpoint's first largeFolds passes. Pre-solve callers,
// one-shot and warm, spend none: the solver decides what the cheap folds
// leave. Only the evidence pass after a refutation spends
// resolveLargeFolds, since its cascade of forcing is what closes the
// cycles a reject names. Returns nil when the pass declined to run
// (closure over budget) or ctx expired mid-pass — the caller then
// proceeds exactly as before the pass existed.
func resolvePolygraph(ctx context.Context, known []KnownEdge, consIn []Constraint, out [][]int32, order []int32, largeFolds, workers int) *resolveResult {
	n := len(out)
	if !closureFeasible(n) {
		return nil
	}
	cl := newClosure(n)
	// Adopt the caller's adjacency: build needs in-lists too.
	cl.out = out
	for u := int32(0); u < int32(n); u++ {
		for _, v := range out[u] {
			cl.in[v] = append(cl.in[v], u)
		}
	}
	cl.build(order, workers)

	res := &resolveResult{}
	defer func() { res.bytes = cl.bytes() }() // folds materialize rows too
	cons := make([]Constraint, len(consIn))
	copy(cons, consIn)
	alive := make([]bool, len(cons))
	for i := range alive {
		alive[i] = true
	}

	// edgeKinds lazily indexes edge provenance for witness rendering —
	// only the rejection paths pay for it, never a clean accept.
	edgeKinds := func() *knownIndex {
		all := make([]KnownEdge, 0, len(known)+len(res.forced))
		return indexKnown(append(append(all, known...), res.forced...))
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
		if staged > resolveCheapBatch && (pass >= largeFolds || gain < 1+len(cons)/resolveGainFloor) {
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
