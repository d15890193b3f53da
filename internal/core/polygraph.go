package core

import (
	"fmt"
	"slices"

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

	// nodeTS is a wall-clock hint per node, used as the tie-break in the
	// heuristic-pruning topological sort (it mimics the database's real
	// schedule; §6).
	nodeTS []int64

	ser      bool
	auxBase  int32
	knownSet acyclic.EdgeSet
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

// classify resolves an event-level edge to node ids. ok is false for an
// edge within one transaction, which holds trivially: a transaction
// begins before it commits, and an edge between one event and itself
// orders nothing. (Under the Serializability mapping both would collapse
// to a self-loop.) No emission orders a transaction's commit before its
// own begin — known edges and constraint sides run tail→head and
// reader→head between different transactions, or begin→commit — so that
// edge, which could never hold, is never asked for.
func (pg *Polygraph) classify(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool) (e Edge, ok bool) {
	if fromT == toT {
		if fromCommit && !toCommit {
			panic(fmt.Sprintf("core: an emission orders txn %d's commit before its own begin", fromT))
		}
		return Edge{}, false
	}
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
	return e, true
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
// constraint coalescing, and the variant edges of §5). It is the window
// stage's construction at radius 0 (window.go), the one every cold check
// takes: index the history's reads and writes, build the known graph per
// key under a pool of opts.Parallelism workers (pass 1), then every
// writer-chain pair of every key straight into the polygraph, in key
// order (pass 2). The polygraph is the same for any worker count.
func Build(h *history.History, opts Options) *Polygraph {
	inc := sessionOver(h, opts)
	inc.update()
	w, _, _ := inc.newWindow(opts)
	w.widen(0)
	return w.pg
}

// newPolygraph returns the empty shell of h's polygraph at level: the
// node layout, with no edges, constraints or known set yet.
func newPolygraph(h *history.History, level Level) *Polygraph {
	pg := &Polygraph{H: h, Level: level, ser: level == Serializability, NumNodes: NodeCount(h, level)}
	pg.auxBase = pg.NumNodes
	return pg
}

// NodeCount is the size of h's node layout at level, auxiliary nodes
// aside: one node per transaction under Serializability, a begin and a
// commit node below it. Every node id a KeyRecord of h names lies below
// it.
func NodeCount(h *history.History, level Level) int32 {
	if level == Serializability {
		return int32(len(h.Txns))
	}
	return int32(len(h.Txns)) * 2
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

// keyChains is one key's writer chains: all of them in writerChains'
// order, and split into the genesis chain and the rest.
type keyChains struct {
	all    []*chain
	gchain *chain
	real   []*chain
}

// keyChains partitions a key's writers into chains (writerChains) and
// splits off the genesis chain.
func (pg *Polygraph) keyChains(writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine bool) keyChains {
	chains := pg.writerChains(writers, byWriter, combine)
	kc := keyChains{all: chains, real: make([]*chain, 0, len(chains))}
	for _, ch := range chains {
		if ch.genesis {
			kc.gchain = ch
		} else {
			kc.real = append(kc.real, ch)
		}
	}
	return kc
}

// keyKnown records the known part of one key's emissions into kr: each
// chain's in-chain order, and the genesis chain before every other chain.
func (pg *Polygraph) keyKnown(key history.Key, kc keyChains, byWriter map[history.TxnID][]history.TxnID, kr keyRecorder) {
	// In-chain known edges.
	for _, ch := range kc.all {
		for i := 0; i+1 < len(ch.members); i++ {
			cur, next := ch.members[i], ch.members[i+1]
			kr.knownEvent(cur, true, next, false, EdgeWW, key)
			// Readers of a non-tail version anti-depend on the next
			// in-chain writer.
			for _, r := range byWriter[cur] {
				if r == next {
					continue
				}
				kr.knownEvent(r, false, next, true, EdgeRW, key)
			}
		}
	}

	// The genesis chain precedes every other chain: its tail commits
	// before other heads begin, and readers of its tail begin before
	// other heads commit.
	if gchain := kc.gchain; gchain != nil {
		for _, ch := range kc.real {
			if gchain.tail() != history.GenesisID {
				kr.knownEvent(gchain.tail(), true, ch.head(), false, EdgeWW, key)
			}
			for _, r := range byWriter[gchain.tail()] {
				kr.knownEvent(r, false, ch.head(), true, EdgeRW, key)
			}
		}
	}
}

// knownOps counts keyKnown's emissions exactly, by the emission's own
// skip rules: an in-chain reader that is the next writer, a genesis-tail
// reader that is the chain head.
func (kc *keyChains) knownOps(byWriter map[history.TxnID][]history.TxnID) int {
	ops := 0
	for _, ch := range kc.all {
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
	if gchain := kc.gchain; gchain != nil {
		gReaders := byWriter[gchain.tail()]
		for _, ch := range kc.real {
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
	return ops
}

// extent is one non-genesis writer chain of a key as a partner in chain
// pairs. The window stage (window.go) sets its span in ŝ: from its head's
// begin to the latest of its tail's commit and its tail's readers' begins.
type extent struct {
	ch         *chain
	begin, end int32
	readers    []history.TxnID // of the chain's tail
	// paired counts the chains right after this one (in its key's extent
	// order) whose pairs with it are built.
	paired int
}

// chainExtents lists chains as extents, in their order, with no pair
// built and no span.
func chainExtents(chains []*chain, byWriter map[history.TxnID][]history.TxnID) []extent {
	ext := make([]extent, len(chains))
	for j, ch := range chains {
		ext[j] = extent{ch: ch, readers: byWriter[ch.tail()]}
	}
	return ext
}

// near reports whether the pair of extents i < j lies within radius k:
// j's head begins less than k positions after i's extent ends. Every pair
// lies within radius 0.
func near(ext []extent, i, j, k int) bool {
	return k == 0 || int(ext[j].begin)-int(ext[i].end) < k
}

// pairsSize sizes recordPairs' output at radius k: ops is exact, and
// edges bounds the constraint-side edges. A coalesced pair is one
// constraint whose sides hold 1 + |readers of a tail| edges each;
// uncoalesced, every edge of a side is its own constraint, with two
// single-edge sides.
func pairsSize(ext []extent, k int, coalesce bool) (ops, edges int) {
	pairs, readers := 0, 0
	for i := range ext {
		for j := i + 1 + ext[i].paired; j < len(ext) && near(ext, i, j, k); j++ {
			pairs++
			readers += len(ext[i].readers) + len(ext[j].readers)
		}
	}
	if coalesce {
		return pairs, 2*pairs + readers
	}
	cons := pairs + readers
	return cons, 2 * cons
}

// pairSink receives the constraints of one key's chain pairs: a
// keyRecorder records them for a KeyRecord, and the window's consWriter
// writes them straight into the polygraph. The sides are scratch the
// caller reuses, so a sink resolves them into storage of its own.
type pairSink interface {
	constraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key)
}

// recordPairs emits into sink the constraints of one key's chain pairs
// within radius k that are not built yet (chainPairConstraints), in
// extent order — the earlier extent first in each pair — and marks them
// built. At radius 0 over extents in chain order, these are the full
// polygraph's pairs (Incremental.regenKey, and the window at radius 0);
// the window's at k > 0 are those within its radius in ŝ order.
func (pg *Polygraph) recordPairs(key history.Key, ext []extent, k int, coalesce bool, sink pairSink) {
	// A side lists a tail's commit and its readers: size the scratch for
	// the key's most-read tail once.
	readers := 0
	for i := range ext {
		readers = max(readers, len(ext[i].readers))
	}
	scratch := pairScratch{fwd: make([]eventEdge, 0, 1+readers), rev: make([]eventEdge, 0, 1+readers)}
	for i := range ext {
		j := i + 1 + ext[i].paired
		for ; j < len(ext) && near(ext, i, j, k); j++ {
			pg.chainPairConstraints(key, &ext[i], &ext[j], coalesce, sink, &scratch)
		}
		ext[i].paired = j - i - 1
	}
}

// pairScratch holds the two side lists chainPairConstraints rebuilds for
// every chain pair of a key. Reusing them across pairs is safe because a
// pairSink resolves sides into storage of its own.
type pairScratch struct {
	fwd, rev []eventEdge
}

// chainPairConstraints emits the constraints between two chains: either
// e1's chain is entirely before e2's in the key's version order or vice
// versa.
func (pg *Polygraph) chainPairConstraints(key history.Key, e1, e2 *extent, coalesce bool, sink pairSink, scratch *pairScratch) {
	// "first before second" edges: first's tail commits before second's
	// head begins, and every reader of first's tail version begins before
	// second's head commits.
	sideEdges := func(buf []eventEdge, first, second *extent) []eventEdge {
		head := second.ch.head()
		buf = append(buf[:0], eventEdge{first.ch.tail(), true, head, false})
		for _, r := range first.readers {
			buf = append(buf, eventEdge{r, false, head, true})
		}
		return buf
	}
	scratch.fwd = sideEdges(scratch.fwd, e1, e2)
	scratch.rev = sideEdges(scratch.rev, e2, e1)
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
				if e, ok := pg.classify(prev, true, id, false); ok {
					pg.addKnown(e, EdgeSession, "")
				}
			}
			prev = id
		}
	}
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
