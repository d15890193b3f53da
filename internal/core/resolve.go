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
// Machinery: a transitive closure of the known graph restricted to the
// constraint edges' endpoints, one packed row per node of bits for those
// targets alone (reaches(u, v) ⟺ u ⇝ v), each row starting at the first
// word its node reaches and all rows carved from one slab, built
// level-by-level in parallel — level(u) = 1 + max over successors, so rows
// within one level never depend on each other and shard freely across the
// worker pool — then a worklist fixpoint over the constraints. A side is
// dead iff one of its edges u→v has v ⇝ u in the closure; edges with
// u ⇝ v are implied and elided (adding an implied edge can never create a
// cycle that was not already there, the same argument construction's
// side filter, Polygraph.certain, uses to drop known edges). A
// dead side forces the other: its edges are appended to the known graph
// and staged into the closure's adjacency; once per fixpoint pass the
// closure folds them in (one row merge per edge) and the constraints are
// swept again. A forced edge that is itself dead closes a cycle among
// must-hold edges — an immediate rejection, with the shortest known-edge
// path as the witness.
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

	"viper/internal/acyclic"
	"viper/internal/bitset"
	"viper/internal/history"
)

// closureByteBudget caps the closure by node count: n rows of Words(n)
// packed words, the size of a closure whose every node is a target and
// whose every row spans them all. Past this the pass is skipped entirely
// (resolution is an optimization; correctness never depends on it).
// 128 MiB admits ~32k nodes — an order of magnitude past the paper's
// workload sizes.
const closureByteBudget = 128 << 20

// closureFeasible reports whether an n-node closure fits the byte budget.
// It decides on n alone, before anything is built: the targets and row
// starts that make the real closure smaller are known only after a sweep
// over the constraints and a pass over the order.
func closureFeasible(n int) bool {
	return n > 0 && int64(n)*int64(bitset.Words(n))*8 <= closureByteBudget
}

// closure is the transitive closure of a DAG, restricted to its targets:
// the nodes reaches is ever asked about. Each target has a bit position
// (bit), numbered along the order of the last build; every other node has
// bit -1. Node u's row holds the words [start[u], words) of the target
// bit space, start[u] being the first word u reaches: in a topological
// order a node reaches only targets numbered after itself, so rows shrink
// along the order. Every build carves the rows from one slab sized in a
// first pass; sinks, and nodes that reach no target, have empty rows. The
// adjacency lists (out/in) hold the folded-in edges and drive both
// incremental propagation and witness extraction.
type closure struct {
	n     int
	bit   []int32 // target bit position by node; -1 off the targets
	words int32   // words of the target bit space
	start []int32 // each row's first word
	rows  [][]uint64
	held  int64 // words of row storage: the last build's slab, plus rows refresh moved
	out   [][]int32
	in    [][]int32
}

// newClosure returns an unbuilt closure over the n-node graph with the
// given edges and no targets yet (see target).
func newClosure(n int, edges []KnownEdge) *closure {
	c := &closure{
		n:     n,
		bit:   make([]int32, n),
		start: make([]int32, n),
		rows:  make([][]uint64, n),
		out:   edgeLists(n, edges, false),
		in:    edgeLists(n, edges, true),
	}
	for i := range c.bit {
		c.bit[i] = -1
	}
	return c
}

// edgeLists returns, for each of the n nodes, the far ends of the given
// edges that start at it — or, with in set, of those that end at it —
// each list in edge order. One counted pass carves every list as a full
// window of one slab, so appending to a list moves that list alone.
func edgeLists(n int, edges []KnownEdge, in bool) [][]int32 {
	ends := func(e KnownEdge) (from, to int32) {
		if in {
			return e.To, e.From
		}
		return e.From, e.To
	}
	deg := make([]int32, n)
	for _, e := range edges {
		u, _ := ends(e)
		deg[u]++
	}
	slab := make([]int32, len(edges))
	lists := make([][]int32, n)
	for u, d := range deg {
		lists[u], slab = slab[:0:d], slab[d:]
	}
	for _, e := range edges {
		u, v := ends(e)
		lists[u] = append(lists[u], v)
	}
	return lists
}

// target makes v a target, before the build that numbers it.
func (c *closure) target(v int32) { c.bit[v] = 0 }

// reaches reports whether a nonempty known path u ⇝ v exists. v must be a
// target: any other node reads as unreached.
func (c *closure) reaches(u, v int32) bool {
	b := c.bit[v]
	w := b>>6 - c.start[u] // negative off the targets: b>>6 is -1
	return w >= 0 && c.rows[u][w]&(1<<(b&63)) != 0
}

// bytes reports the closure's footprint: the words of row storage it
// holds. This backs Report.ClosureBytes.
func (c *closure) bytes() int64 { return c.held * 8 }

// addArc records the edge in the adjacency lists without propagating
// reachability; used to stage edges before a fold.
func (c *closure) addArc(u, v int32) {
	c.out[u] = append(c.out[u], v)
	c.in[v] = append(c.in[v], u)
}

// first returns the first word u reaches: the least over its successors
// of the word of their own bit and the first word of their rows.
func (c *closure) first(u int32) int32 {
	s := c.words
	for _, v := range c.out[u] {
		if b := c.bit[v]; b >= 0 {
			s = min(s, b>>6)
		}
		s = min(s, c.start[v])
	}
	return s
}

// build computes every row from the staged adjacency. order must be a
// topological order of the staged graph; the targets are numbered along
// it. One reverse pass over the order finds each node's level — level(u)
// = 1 + max level among successors, so every row a level-L node ORs over
// is finished before level L starts — and its row start, which sizes the
// slab. Each level's rows are then filled by a worker pool claiming rows
// from an atomic cursor. Bitwise OR is commutative and rows within a level
// are disjoint, so the result is schedule-independent.
func (c *closure) build(order []int32, workers int) {
	t := int32(0)
	for _, u := range order {
		if c.bit[u] >= 0 {
			c.bit[u] = t
			t++
		}
	}
	c.words = int32(bitset.Words(int(t)))
	lvl := make([]int32, c.n)
	maxLvl, held := int32(0), int64(0)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		l := int32(0)
		for _, v := range c.out[u] {
			l = max(l, lvl[v]+1)
		}
		lvl[u], c.start[u] = l, c.first(u)
		maxLvl = max(maxLvl, l)
		held += int64(c.words - c.start[u])
	}

	// Carve the rows along the order, and list the nodes with a row by
	// level in one counting sort: level l's rows end up byLvl[at[l-1]:at[l]].
	slab := make([]uint64, held)
	at := make([]int32, maxLvl+2)
	for _, u := range order {
		size := c.words - c.start[u]
		c.rows[u], slab = slab[:size:size], slab[size:]
		if size > 0 {
			at[lvl[u]+1]++
		}
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	byLvl := make([]int32, at[maxLvl+1])
	for _, u := range order {
		if len(c.rows[u]) > 0 {
			byLvl[at[lvl[u]]] = u
			at[lvl[u]]++
		}
	}
	c.held = held

	for l := 1; l <= int(maxLvl); l++ {
		level := byLvl[at[l-1]:at[l]]
		// Tiny levels are not worth the goroutine round trip.
		if workers <= 1 || len(level) < 4*workers {
			for _, u := range level {
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
					if i >= len(level) {
						return
					}
					c.fill(level[i])
				}
			}()
		}
		wg.Wait()
	}
}

// fill recomputes u's row from scratch — zeroing whatever was there, then
// ORing in its successors' bits and (already final) rows, each at its
// offset from u's start — so neither build nor refresh needs a separate
// pass over the rows to clear stale bits.
func (c *closure) fill(u int32) {
	row, base := c.rows[u], c.start[u]
	clear(row)
	for _, v := range c.out[u] {
		if b := c.bit[v]; b >= 0 {
			row[b>>6-base] |= 1 << (b & 63)
		}
		dst := row[c.start[v]-base:]
		for i, w := range c.rows[v] {
			dst[i] |= w
		}
	}
}

// refresh recomputes only the rows staged arcs can have changed — the arc
// sources and their ancestors — leaving every other row untouched. order
// must be a topological order of the augmented graph. A recomputed row
// whose node now reaches a word before its start moves to a new row from
// that word. Returns false (without touching any row) when most rows are
// dirty anyway: the caller should run the parallel full build instead,
// which fills level by level rather than serially.
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
		if !dirty[u] {
			continue
		}
		if s := c.first(u); s < c.start[u] {
			c.start[u], c.rows[u] = s, make([]uint64, c.words-s)
			c.held += int64(c.words - s)
		}
		c.fill(u)
	}
	return true
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
	out      [][]int32    // the known graph's adjacency, forced edges appended
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

// resolvePolygraph runs the sound resolution fixpoint over cons (a
// check's constraints, or the timestamp fast path's residue — forcing
// from a constraint subset is still exact, every forced edge holds in
// every compatible graph of the full polygraph) and never writes to it.
// known is the known graph over n nodes with its provenance, and order,
// when non-nil, a topological order of it; nil sorts it here. The
// result's out is the known graph's adjacency with the forced edges
// appended, so a caller can re-derive a topological order afterwards.
// largeFolds is the caller's budget of large folds: a staged batch of
// more than resolveCheapBatch edges folds only within the fixpoint's
// first largeFolds passes. Pre-solve callers, one-shot and warm, spend
// none: the solver decides what the cheap folds leave. Only the evidence
// pass after a refutation spends resolveLargeFolds, since its cascade of
// forcing is what closes the cycles a reject names. Returns nil when the
// pass declined to run (closure over budget, or a cyclic known graph) or
// ctx expired mid-pass — the caller then proceeds exactly as before the
// pass existed.
func resolvePolygraph(ctx context.Context, n int, known []KnownEdge, cons []Constraint, order []int32, largeFolds, workers int) *resolveResult {
	if !closureFeasible(n) {
		return nil
	}
	// The closure's targets are the endpoints of the constraints' side
	// edges: the only nodes the sweep asks reaches about, and the only
	// ones forced edges join.
	cl := newClosure(n, known)
	for i := range cons {
		for _, side := range [2][]Edge{cons[i].First, cons[i].Second} {
			for _, e := range side {
				cl.target(e.From)
				cl.target(e.To)
			}
		}
	}
	if order == nil {
		var ok bool
		if order, ok = acyclic.TopoBFS(n, cl.out, nil); !ok {
			return nil
		}
	}
	cl.build(order, workers)

	res := &resolveResult{}
	defer func() { res.out, res.bytes = cl.out, cl.bytes() }() // folds move rows too
	// live[i] is 0 while constraint i is undecided with its own sides, k > 0
	// while undecided with the sides elision narrowed, narrowed[k-1], and -1
	// once resolved.
	live := make([]int32, len(cons))
	var narrowed []Constraint

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
			if live[i] < 0 {
				continue
			}
			c := &cons[i]
			if k := live[i]; k > 0 {
				c = &narrowed[k-1]
			}
			fDead, f := evalSide(c.First)
			sDead, s := evalSide(c.Second)
			switch {
			case fDead != nil && sDead != nil:
				// Neither side can hold: unsatisfiable, with the first side's
				// dead edge closing the witness cycle.
				conflict(*fDead, c.Kind1, c.Key)
				return res
			case fDead != nil:
				live[i] = -1
				res.resolved++
				if !forceSide(s, c.Kind2, c.Key) {
					return res
				}
			case sDead != nil:
				live[i] = -1
				res.resolved++
				if !forceSide(f, c.Kind1, c.Key) {
					return res
				}
			case len(f) == 0 || len(s) == 0:
				// One side is fully implied by known paths: the constraint
				// imposes nothing (any model extends with the implied side, and
				// implied edges can never create a new cycle).
				live[i] = -1
				res.resolved++
			case len(f) < len(c.First) || len(s) < len(c.Second):
				if live[i] == 0 {
					narrowed = append(narrowed, *c)
					live[i] = int32(len(narrowed))
					c = &narrowed[len(narrowed)-1]
				}
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
		order, ok := acyclic.TopoBFS(n, cl.out, nil)
		if !ok {
			cyc := acyclic.FindCycle(n, cl.out)
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
	for i, k := range live {
		switch {
		case k == 0:
			res.kept = append(res.kept, cons[i])
		case k > 0:
			res.kept = append(res.kept, narrowed[k-1])
		default:
			continue
		}
		res.keptAt = append(res.keptAt, int32(i))
	}
	return res
}
