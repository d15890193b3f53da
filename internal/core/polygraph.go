package core

import (
	"fmt"
	"slices"
	"time"

	"viper/internal/acyclic"
	"viper/internal/history"
)

// Edge is a directed edge between polygraph nodes. Under SI levels, nodes
// are begin/commit events (node 2t is txn t's begin, 2t+1 its commit);
// under Serializability each transaction is a single node (id t).
type Edge struct {
	From, To int32
}

// EdgeKind classifies known edges, for diagnostics and cycle reporting.
type EdgeKind uint8

const (
	// EdgeIntra orders a transaction's begin before its commit.
	EdgeIntra EdgeKind = iota
	// EdgeWR is a read dependency (commit of writer → begin of reader).
	EdgeWR
	// EdgeWW is a known write dependency (from combining writes, or a
	// constraint side forced during construction or pruning).
	EdgeWW
	// EdgeRW is a known anti-dependency.
	EdgeRW
	// EdgeSession orders consecutive transactions of a session
	// (Strong Session SI).
	EdgeSession
	// EdgeRealTime is a bounded-clock-drift happens-before edge
	// (GSI / Strong SI), possibly through an auxiliary chain node.
	EdgeRealTime
	// EdgeHeuristic is a pruning assumption (§3.5), present only in retry
	// attempts, never in the polygraph itself.
	EdgeHeuristic
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeIntra:
		return "intra"
	case EdgeWR:
		return "wr"
	case EdgeWW:
		return "ww"
	case EdgeRW:
		return "rw"
	case EdgeSession:
		return "session"
	case EdgeRealTime:
		return "real-time"
	case EdgeHeuristic:
		return "heuristic"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// KnownEdge is an edge of the known graph with its provenance.
type KnownEdge struct {
	Edge
	Kind EdgeKind
	Key  history.Key // for wr/ww/rw edges
}

// Constraint is one "exactly one side holds" alternative (Definition 3,
// generalized to edge sets by constraint coalescing). Uncoalesced
// constraints have singleton sides and are encoded as the paper's XOR;
// coalesced constraints get a selector boolean implying each side.
// Kind1/Kind2 carry each side's edge kind so a side forced later — by
// construction-time contradiction of the other side, or by the sound
// pre-solve resolution pass (resolve.go) — enters the known graph with
// the same provenance construction-time forcing would have given it.
type Constraint struct {
	First, Second []Edge
	Kind1, Kind2  EdgeKind
	Key           history.Key
}

// Polygraph is a BC-polygraph (Definition 3): the known graph (nodes +
// Known edges) and the constraint set. For Serializability it degenerates
// to the transaction-level polygraph of §3.4's parallel.
type Polygraph struct {
	H     *history.History
	Level Level

	// NumNodes includes the per-transaction nodes and any auxiliary
	// real-time chain nodes.
	NumNodes int32

	Known []KnownEdge
	Cons  []Constraint

	// Contradiction marks a constraint whose both sides were impossible at
	// construction time; the history is trivially non-SI.
	Contradiction bool

	// nodeTS is a wall-clock hint per node, used as the tie-break in the
	// heuristic-pruning topological sort (it mimics the database's real
	// schedule; §6).
	nodeTS []int64

	ser      bool
	auxBase  int32
	knownSet acyclic.EdgeSet

	// Construction timing: buildWall is wall-clock time, buildCPU the same
	// work summed across workers (equal for a serial build), buildWorkers
	// the resolved worker count. parWall/parCPU account the parallel
	// sections only (see parallel.go).
	buildWall    time.Duration
	buildCPU     time.Duration
	parWall      time.Duration
	parCPU       time.Duration
	buildWorkers int
}

// BuildTimings reports construction wall-clock time, the equivalent CPU
// time summed across workers (== wall for a serial build), and the worker
// count used.
func (pg *Polygraph) BuildTimings() (wall, cpu time.Duration, workers int) {
	return pg.buildWall, pg.buildCPU, pg.buildWorkers
}

// Begin returns the node id of t's begin event.
func (pg *Polygraph) Begin(t history.TxnID) int32 {
	if pg.ser {
		return int32(t)
	}
	return int32(t) * 2
}

// Commit returns the node id of t's commit event.
func (pg *Polygraph) Commit(t history.TxnID) int32 {
	if pg.ser {
		return int32(t)
	}
	return int32(t)*2 + 1
}

// NodeName renders a node id for diagnostics ("B12", "C12", "T12", "aux3").
func (pg *Polygraph) NodeName(n int32) string {
	if n >= pg.auxBase {
		return fmt.Sprintf("aux%d", n-pg.auxBase)
	}
	// Transaction ids in diagnostics are external: behind a checkpoint
	// fence, live internal ids are offset by the fenced count so cycles
	// keep naming the transactions the client actually streamed (genesis
	// stays 0, matching validation errors).
	ext := func(t int32) history.TxnID { return pg.H.Fence().ExternalID(history.TxnID(t)) }
	if pg.ser {
		return fmt.Sprintf("T%d", ext(n))
	}
	if n%2 == 0 {
		return fmt.Sprintf("B%d", ext(n/2))
	}
	return fmt.Sprintf("C%d", ext(n/2))
}

// edgeClass classifies a candidate edge between events of possibly the
// same transaction.
type edgeClass int8

const (
	edgeNormal edgeClass = 0
	edgeTrue   edgeClass = 1  // holds trivially (a txn begins before it commits)
	edgeFalse  edgeClass = -1 // impossible (a txn cannot commit before it begins)
)

// classify resolves an event-level edge to node ids and a class. Same-
// transaction begin→commit edges are trivially true; commit→begin edges
// are impossible. This matters under the Serializability mapping, where
// both would collapse to a self-loop.
func (pg *Polygraph) classify(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool) (Edge, edgeClass) {
	if fromT == toT {
		if !fromCommit && toCommit {
			return Edge{}, edgeTrue
		}
		if fromCommit && !toCommit {
			return Edge{}, edgeFalse
		}
		// begin→begin / commit→commit of the same txn: degenerate, treat
		// as trivially true (no ordering content).
		return Edge{}, edgeTrue
	}
	var e Edge
	if fromCommit {
		e.From = pg.Commit(fromT)
	} else {
		e.From = pg.Begin(fromT)
	}
	if toCommit {
		e.To = pg.Commit(toT)
	} else {
		e.To = pg.Begin(toT)
	}
	return e, edgeNormal
}

func (pg *Polygraph) addKnown(e Edge, kind EdgeKind, key history.Key) {
	if e.From == e.To || !pg.knownSet.Add(e.From, e.To) {
		return
	}
	pg.Known = append(pg.Known, KnownEdge{Edge: e, Kind: kind, Key: key})
}

// eventEdge is a not-yet-resolved constraint edge.
type eventEdge struct {
	fromT      history.TxnID
	fromCommit bool
	toT        history.TxnID
	toCommit   bool
}

// addConstraint normalizes and records a constraint whose sides are event
// edges. Sides containing an impossible edge are dropped (forcing the
// other side into the known graph); trivially-true edges are elided.
func (pg *Polygraph) addConstraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key) {
	resolve := func(side []eventEdge) (edges []Edge, invalid bool) {
		for _, ee := range side {
			e, cls := pg.classify(ee.fromT, ee.fromCommit, ee.toT, ee.toCommit)
			switch cls {
			case edgeFalse:
				return nil, true
			case edgeTrue:
				continue
			}
			if pg.knownSet.Has(e.From, e.To) {
				continue // already certain
			}
			edges = append(edges, e)
		}
		return edges, false
	}
	f, fBad := resolve(first)
	s, sBad := resolve(second)
	switch {
	case fBad && sBad:
		pg.Contradiction = true
	case fBad:
		for _, e := range s {
			pg.addKnown(e, kind2, key)
		}
	case sBad:
		for _, e := range f {
			pg.addKnown(e, kind1, key)
		}
	case len(f) == 0 || len(s) == 0:
		// One side holds trivially: the constraint imposes nothing (any
		// acyclic supergraph can drop the other side's edges).
	default:
		pg.Cons = append(pg.Cons, Constraint{First: f, Second: s, Kind1: kind1, Kind2: kind2, Key: key})
	}
}

// chain is a maximal run of writers of one key whose mutual write order is
// known (read-modify-write chains; Cobra's combining writes adapted to
// BC-polygraphs). The genesis chain, if present, is the version order's
// prefix.
type chain struct {
	members []history.TxnID
	genesis bool
}

func (c *chain) head() history.TxnID { return c.members[0] }
func (c *chain) tail() history.TxnID { return c.members[len(c.members)-1] }

// Build constructs the BC-polygraph of a validated history (Figure 4's
// CreateBCPolygraph, plus range-query derivation, combining writes,
// constraint coalescing, and the variant edges of §5). When
// opts.Parallelism resolves to more than one worker, read collection and
// per-key constraint generation are sharded across a worker pool
// (parallel.go); the resulting polygraph is identical to the serial build.
func Build(h *history.History, opts Options) *Polygraph {
	start := time.Now()
	pg := newPolygraph(h, opts.Level)
	pg.initNodeTS()

	if w := opts.workers(); w > 1 && len(h.Keys()) > 0 && h.Len() > 1 {
		pg.buildSharded(opts, w)
	} else {
		pg.buildWorkers = 1
		pg.addIntraEdges()
		readers := pg.collectReads()
		writersByKey := writersByKey(h)
		pg.addReadDeps(readers)
		// Constraints per key, over writer chains.
		for _, key := range h.Keys() {
			pg.buildKeyConstraints(key, writersByKey[key], readers[key], !opts.DisableCombineWrites, !opts.DisableCoalesce, pg)
		}
	}

	// Variant edges.
	if opts.Level == StrongSessionSI {
		pg.addSessionEdges()
	}
	if opts.Level.needsRealTime() {
		pg.addRealTimeEdges(opts)
	}
	pg.buildWall = time.Since(start)
	pg.buildCPU = pg.buildWall - pg.parWall + pg.parCPU
	return pg
}

// newPolygraph returns the empty shell of h's polygraph at level: the
// node layout, with no edges, constraints or known set yet.
func newPolygraph(h *history.History, level Level) *Polygraph {
	pg := &Polygraph{H: h, Level: level, ser: level == Serializability}
	if pg.ser {
		pg.NumNodes = int32(len(h.Txns))
	} else {
		pg.NumNodes = int32(len(h.Txns)) * 2
	}
	pg.auxBase = pg.NumNodes
	return pg
}

// addIntraEdges adds the intra-transaction dependency edges (begin →
// commit); no-ops under the Serializability mapping.
func (pg *Polygraph) addIntraEdges() {
	if pg.ser {
		return
	}
	for _, t := range pg.H.Txns {
		if t.Committed() {
			pg.addKnown(Edge{pg.Begin(t.ID), pg.Commit(t.ID)}, EdgeIntra, "")
		}
	}
}

// addReadDeps emits the read-dependency edges: commit of writer → begin of
// reader. Reads from genesis need no edge (genesis trivially commits
// first).
func (pg *Polygraph) addReadDeps(readers map[history.Key]map[history.TxnID][]history.TxnID) {
	for _, key := range sortedKeys(readers) {
		byWriter := readers[key]
		for _, w := range sortedTxns(byWriter) {
			if w == history.GenesisID {
				continue
			}
			for _, r := range byWriter[w] {
				e, cls := pg.classify(w, true, r, false)
				if cls == edgeNormal {
					pg.addKnown(e, EdgeWR, key)
				}
			}
		}
	}
}

// initNodeTS fills the per-node wall-clock hints.
func (pg *Polygraph) initNodeTS() {
	pg.nodeTS = make([]int64, pg.NumNodes)
	for _, t := range pg.H.Txns {
		if !t.Committed() {
			continue
		}
		pg.nodeTS[pg.Begin(t.ID)] = t.BeginAt
		pg.nodeTS[pg.Commit(t.ID)] = t.CommitAt
	}
}

// collectReads indexes external read observations: key → writer →
// readers (deduplicated, deterministic order). Range queries contribute
// their returned versions as reads, and — thanks to the tombstone
// discipline (§4) — genesis reads for every written key inside the range
// that was absent from the result: a correct collector setup never truly
// deletes keys, so absence can only mean "never inserted", i.e. the range
// query read the key's initial version.
func (pg *Polygraph) collectReads() map[history.Key]map[history.TxnID][]history.TxnID {
	readers := make(map[history.Key]map[history.TxnID][]history.TxnID, len(pg.H.Txns))
	pg.collectReadsInto(readers, pg.H.Txns[1:])
	return readers
}

// collectReadsInto indexes the external reads of the given transactions
// into readers. Sharding callers pass contiguous transaction ranges so
// per-(key, writer) reader lists stay in transaction order (parallel.go).
func (pg *Polygraph) collectReadsInto(readers map[history.Key]map[history.TxnID][]history.TxnID, txns []*history.Txn) {
	h := pg.H
	add := func(key history.Key, w, r history.TxnID) {
		if w == r {
			return
		}
		m := readers[key]
		if m == nil {
			m = make(map[history.TxnID][]history.TxnID, 4)
			readers[key] = m
		}
		for _, prev := range m[w] {
			if prev == r {
				return
			}
		}
		m[w] = append(m[w], r)
	}
	for _, t := range txns {
		if !t.Committed() {
			continue
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // unreachable on validated histories
			}
			add(key, ref.Txn, t.ID)
		})
		// Non-returned written keys inside range bounds ⇒ genesis reads.
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind != history.OpRange {
				continue
			}
			returned := make(map[history.Key]bool, len(op.Result))
			for _, v := range op.Result {
				returned[v.Key] = true
			}
			for _, k := range h.KeysInRange(op.Lo, op.Hi) {
				if !returned[k] {
					add(k, history.GenesisID, t.ID)
				}
			}
		}
	}
}

// constraintSink receives the emissions of the per-key constraint pass.
// The serial build (the Polygraph itself) applies them to the graph
// immediately; the sharded build records them per key and replays them in
// serial order (parallel.go).
type constraintSink interface {
	// reserve announces a key's emissions before the first of them: ops
	// is exactly the number of knownEvent emissions that classify as
	// normal plus constraint emissions, edges bounds the constraint-side
	// edges they resolve to.
	reserve(ops, edges int)
	// knownEvent emits a certain event-level edge (elided when classify
	// resolves it as trivially true or impossible).
	knownEvent(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool, kind EdgeKind, key history.Key)
	// constraint emits an either/or constraint over event-level edge sets.
	// The sides are scratch the caller reuses: a sink copies what it keeps.
	constraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key)
}

// reserve is a no-op: the serial build applies emissions as they come.
func (pg *Polygraph) reserve(ops, edges int) {}

func (pg *Polygraph) knownEvent(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool, kind EdgeKind, key history.Key) {
	if e, cls := pg.classify(fromT, fromCommit, toT, toCommit); cls == edgeNormal {
		pg.addKnown(e, kind, key)
	}
}

func (pg *Polygraph) constraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key) {
	pg.addConstraint(first, second, kind1, kind2, key)
}

// buildKeyConstraints emits the known edges and constraints for one key
// (Figure 4 lines 37–50, at writer-chain granularity) into the sink, and
// returns the key's writer chains.
func (pg *Polygraph) buildKeyConstraints(key history.Key, writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine, coalesce bool, sink constraintSink) []*chain {
	chains := pg.writerChains(writers, byWriter, combine)
	if len(chains) == 0 {
		return nil
	}
	var gchain *chain
	real := make([]*chain, 0, len(chains))
	for _, ch := range chains {
		if ch.genesis {
			gchain = ch
		} else {
			real = append(real, ch)
		}
	}
	sink.reserve(recordSize(chains, gchain, real, byWriter, coalesce))

	// In-chain known edges.
	for _, ch := range chains {
		for i := 0; i+1 < len(ch.members); i++ {
			cur, next := ch.members[i], ch.members[i+1]
			sink.knownEvent(cur, true, next, false, EdgeWW, key)
			// Readers of a non-tail version anti-depend on the next
			// in-chain writer.
			for _, r := range byWriter[cur] {
				if r == next {
					continue
				}
				sink.knownEvent(r, false, next, true, EdgeRW, key)
			}
		}
	}

	// The genesis chain precedes every other chain: its tail commits
	// before other heads begin, and readers of its tail begin before
	// other heads commit.
	if gchain != nil {
		for _, ch := range real {
			if gchain.tail() != history.GenesisID {
				sink.knownEvent(gchain.tail(), true, ch.head(), false, EdgeWW, key)
			}
			for _, r := range byWriter[gchain.tail()] {
				sink.knownEvent(r, false, ch.head(), true, EdgeRW, key)
			}
		}
	}

	// Pairwise constraints between non-genesis chains.
	var scratch pairScratch
	for i := 0; i < len(real); i++ {
		for j := i + 1; j < len(real); j++ {
			pg.chainPairConstraints(key, real[i], real[j], byWriter, coalesce, sink, &scratch)
		}
	}
	return chains
}

// recordSize sizes buildKeyConstraints' output for one key's chains: ops
// is exact, by the emission's own skip rules (an in-chain reader that is
// the next writer, a genesis-tail reader that is the chain head), and
// edges bounds the constraint-side edges. A coalesced pair has sides of
// 1 + |readers of its tail| edges, so each of the r chain tails' readers
// appears in r−1 pairs; an uncoalesced constraint has two single-edge
// sides.
func recordSize(chains []*chain, gchain *chain, real []*chain, byWriter map[history.TxnID][]history.TxnID, coalesce bool) (ops, edges int) {
	for _, ch := range chains {
		for i := 0; i+1 < len(ch.members); i++ {
			next := ch.members[i+1]
			ops++
			for _, r := range byWriter[ch.members[i]] {
				if r != next {
					ops++
				}
			}
		}
	}
	if gchain != nil {
		gReaders := byWriter[gchain.tail()]
		for _, ch := range real {
			if gchain.tail() != history.GenesisID {
				ops++
			}
			for _, r := range gReaders {
				if r != ch.head() {
					ops++
				}
			}
		}
	}
	r := len(real)
	pairs := r * (r - 1) / 2
	tailReaders := 0
	for _, ch := range real {
		tailReaders += len(byWriter[ch.tail()])
	}
	if coalesce {
		return ops + pairs, 2*pairs + (r-1)*tailReaders
	}
	cons := pairs + (r-1)*tailReaders
	return ops + cons, 2 * cons
}

// pairScratch holds the two side lists chainPairConstraints rebuilds for
// every chain pair of a key. Reusing them across pairs is safe because
// both sinks resolve sides into fresh storage (addConstraint,
// keyRecorder.constraint).
type pairScratch struct {
	fwd, rev []eventEdge
}

// chainPairConstraints emits the constraints between two chains: either
// ch1 is entirely before ch2 in the key's version order or vice versa.
func (pg *Polygraph) chainPairConstraints(key history.Key, ch1, ch2 *chain, byWriter map[history.TxnID][]history.TxnID, coalesce bool, sink constraintSink, scratch *pairScratch) {
	// "ch1 before ch2" edges: tail1 commits before head2 begins, and every
	// reader of tail1's version begins before head2 commits.
	sideEdges := func(buf []eventEdge, first, second *chain) []eventEdge {
		buf = append(buf[:0], eventEdge{first.tail(), true, second.head(), false})
		for _, r := range byWriter[first.tail()] {
			buf = append(buf, eventEdge{r, false, second.head(), true})
		}
		return buf
	}
	scratch.fwd = sideEdges(scratch.fwd, ch1, ch2)
	scratch.rev = sideEdges(scratch.rev, ch2, ch1)
	fwd, rev := scratch.fwd, scratch.rev

	if coalesce {
		sink.constraint(fwd, rev, EdgeWW, EdgeWW, key)
		return
	}
	// Uncoalesced: the paper's per-edge XOR constraints (Figure 4 lines 46
	// and 50), all sharing the "other order" ww edge.
	sink.constraint(fwd[:1], rev[:1], EdgeWW, EdgeWW, key)
	for i := 1; i < len(fwd); i++ {
		sink.constraint(fwd[i:i+1], rev[:1], EdgeRW, EdgeWW, key)
	}
	for i := 1; i < len(rev); i++ {
		sink.constraint(rev[i:i+1], fwd[:1], EdgeRW, EdgeWW, key)
	}
}

// writerChains partitions a key's writers into chains. With combining
// disabled every writer is a singleton; the genesis chain is always
// present (genesis implicitly installs every key's initial version).
func (pg *Polygraph) writerChains(writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine bool) []*chain {
	singletons := func() []*chain {
		out := make([]*chain, 0, len(writers)+1)
		out = append(out, &chain{members: []history.TxnID{history.GenesisID}, genesis: true})
		for _, w := range writers {
			out = append(out, &chain{members: []history.TxnID{w}})
		}
		return out
	}
	if !combine || len(writers) == 0 {
		return singletons()
	}

	isWriter := make(map[history.TxnID]bool, len(writers))
	for _, w := range writers {
		isWriter[w] = true
	}
	// pred[w] = the writer (or genesis) whose version w externally read;
	// derived from the readers index: w is chained after p iff w read
	// (key, p) and w writes the key. A writer observing two distinct
	// versions has no consistent position — fall back to singletons.
	pred := make(map[history.TxnID]history.TxnID, len(writers))
	for _, p := range sortedTxns(byWriter) {
		if p != history.GenesisID && !isWriter[p] {
			continue
		}
		for _, r := range byWriter[p] {
			if !isWriter[r] {
				continue
			}
			if prev, dup := pred[r]; dup && prev != p {
				return singletons()
			}
			pred[r] = p
		}
	}
	// succ inverts pred; branching (two writers reading the same version
	// and writing the key) breaks the chain property — fall back to
	// singletons and let the constraints expose the (non-SI) situation.
	succ := make(map[history.TxnID]history.TxnID, len(pred))
	for _, w := range writers {
		p, ok := pred[w]
		if !ok {
			continue
		}
		if _, dup := succ[p]; dup {
			return singletons()
		}
		succ[p] = w
	}

	chained := make(map[history.TxnID]bool, len(writers))
	follow := func(start history.TxnID, c *chain) bool {
		for cur := start; ; {
			next, ok := succ[cur]
			if !ok {
				return true
			}
			if chained[next] || next == start {
				return false // cycle in claimed write order
			}
			c.members = append(c.members, next)
			chained[next] = true
			cur = next
		}
	}
	var chains []*chain
	g := &chain{members: []history.TxnID{history.GenesisID}, genesis: true}
	if !follow(history.GenesisID, g) {
		return singletons()
	}
	chains = append(chains, g)
	for _, w := range writers {
		if chained[w] {
			continue
		}
		if _, hasPred := pred[w]; hasPred {
			continue // belongs to some chain's interior; visit via its head
		}
		c := &chain{members: []history.TxnID{w}}
		chained[w] = true
		if !follow(w, c) {
			return singletons()
		}
		chains = append(chains, c)
	}
	// Any writer still unchained has a pred forming a cycle or pointing
	// into a branch; fall back.
	for _, w := range writers {
		if !chained[w] {
			return singletons()
		}
	}
	return chains
}

// writersByKey indexes the committed writers of each key, in txn order.
// Write ops are scanned directly rather than through a per-transaction
// LastWritePerKey map (one map allocation per txn); a transaction's
// repeated writes of a key deduplicate against the slice tail, since no
// later transaction can have appended in between. Transactions iterate in
// ID order, so each per-key slice is born sorted — no sort pass.
func writersByKey(h *history.History) map[history.Key][]history.TxnID {
	out := make(map[history.Key][]history.TxnID, len(h.Txns))
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			continue
		}
		for i := range t.Ops {
			switch t.Ops[i].Kind {
			case history.OpWrite, history.OpInsert, history.OpDelete:
				key := t.Ops[i].Key
				if ws := out[key]; len(ws) > 0 && ws[len(ws)-1] == t.ID {
					continue
				}
				out[key] = append(out[key], t.ID)
			}
		}
	}
	return out
}

// addSessionEdges adds commit→begin edges between consecutive committed
// transactions of each session (Strong Session SI, §5).
func (pg *Polygraph) addSessionEdges() {
	for _, txns := range pg.H.Sessions {
		var prev history.TxnID = -1
		for _, id := range txns {
			if !pg.H.Txns[id].Committed() {
				continue
			}
			if prev >= 0 {
				if e, cls := pg.classify(prev, true, id, false); cls == edgeNormal {
					pg.addKnown(e, EdgeSession, "")
				}
			}
			prev = id
		}
	}
}

func sortedKeys[V any](m map[history.Key]V) []history.Key {
	keys := make([]history.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedTxns[V any](m map[history.TxnID]V) []history.TxnID {
	ids := make([]history.TxnID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// GraphStats breaks the known graph down by edge kind and sizes the
// constraint set, for diagnostics (cmd/viper -v) and tests.
type GraphStats struct {
	Nodes           int
	EdgesByKind     map[EdgeKind]int
	Constraints     int
	ConstraintEdges int
	Coalesced       int // constraints with a multi-edge side
}

// Stats summarizes the polygraph.
func (pg *Polygraph) Stats() GraphStats {
	st := GraphStats{
		Nodes:       int(pg.NumNodes),
		EdgesByKind: make(map[EdgeKind]int),
		Constraints: len(pg.Cons),
	}
	for _, ke := range pg.Known {
		st.EdgesByKind[ke.Kind]++
	}
	for _, c := range pg.Cons {
		st.ConstraintEdges += len(c.First) + len(c.Second)
		if len(c.First) > 1 || len(c.Second) > 1 {
			st.Coalesced++
		}
	}
	return st
}

// String implements fmt.Stringer with a one-line summary.
func (pg *Polygraph) String() string {
	st := pg.Stats()
	return fmt.Sprintf("BC-polygraph{level=%s nodes=%d known=%d constraints=%d (%d coalesced)}",
		pg.Level, st.Nodes, len(pg.Known), st.Constraints, st.Coalesced)
}
