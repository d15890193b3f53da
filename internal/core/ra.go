// Read Atomic: atomic visibility decided in polynomial time, following
// the saturation algorithms of Biswas & Enea ("On the Complexity of
// Checking Transactional Consistency", OOPSLA 2019). A history satisfies
// Read Atomic iff some total commit order co extends the write-read
// dependencies such that whenever t3 reads key x from t1 while having
// observed another x-writer t2 (a direct wr predecessor of t3), t2
// commits before t1. The axiom's premise never mentions co itself, so one
// derivation pass computes every forced co edge and the history is Read
// Atomic iff the forced relation is acyclic — no solver, no search.
//
// The classic "fractured read" (t3 sees t1's write of x but misses t1's
// atomic co-write of y) appears here as a forced edge t1 → genesis, i.e.
// a cycle with the genesis-first edges, and is rejected with that cycle
// as evidence.
//
// This file also holds the observation index (obsGraph) shared by every
// polynomial level — Read Committed, Read Atomic, Causal — so a verdict-
// matrix pass builds it once.
package core

import (
	"fmt"

	"viper/internal/acyclic"
	"viper/internal/history"
)

// g1bEvidence names an intermediate read (Adya's G1b): a committed
// transaction observing a committed writer's non-final write of a key.
type g1bEvidence struct {
	Reader, Writer history.TxnID
	Key            history.Key
}

func (g *g1bEvidence) String() string {
	return fmt.Sprintf("G1b intermediate read: txn %d observed a non-final write of key %q by txn %d",
		g.Reader, g.Key, g.Writer)
}

// findG1b scans for an intermediate read. G1b is proscribed from PL-2 up,
// and no event schedule can replay one (commits install last-write-per-
// key), so every level above Read Committed inherits the rejection; the
// polygraph path screens with this too (see Incremental.AuditContext).
// Transactions in [from, len(h.Txns)) are scanned — the writer a read
// names is immutable once appended, so a clean prefix never needs
// rescanning.
func findG1b(h *history.History, from int) *g1bEvidence {
	if from < 1 {
		from = 1
	}
	var found *g1bEvidence
	for _, t := range h.Txns[from:] {
		if !t.Committed() {
			continue
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			if found != nil || obs == history.GenesisWriteID {
				return
			}
			ref, ok := h.WriterOf(obs)
			if !ok || ref.Txn == history.GenesisID {
				return
			}
			writer := h.Txns[ref.Txn]
			if last, wrote := writer.LastWriteOf(key); wrote && last != ref.Op {
				found = &g1bEvidence{Reader: t.ID, Writer: ref.Txn, Key: key}
			}
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// obsGraph is the committed-transaction-level observation index the
// polynomial checkers share: deduplicated write-read edges, each
// transaction's observations grouped by key (including the synthetic
// genesis observations a range query implies for written in-range keys
// absent from its result), and each transaction's written key set. A
// verdict-matrix pass builds it once and reuses it across RC/RA/Causal.
type obsGraph struct {
	h *history.History
	n int // len(h.Txns)
	// wrOut is the wr adjacency (writer → reader; genesis and self-loops
	// excluded), wrKey each edge's provenance key. Edge and list order
	// match the Read Committed checker's historical construction.
	wrOut [][]int32
	wrKey map[Edge]history.Key
	// readsOf[t] groups t's external observations by key: the distinct
	// writers observed (GenesisID for initial versions). Nil for
	// transactions without external reads.
	readsOf []map[history.Key][]history.TxnID
	// writeKeys[t] is the distinct keys committed transaction t wrote.
	writeKeys [][]history.Key

	// g1b memoizes the history's first intermediate read (g1bDone guards
	// the nil result) so a matrix pass over several levels scans once.
	g1b     *g1bEvidence
	g1bDone bool
}

// firstG1b returns the history's first G1b intermediate read, if any.
func (g *obsGraph) firstG1b() *g1bEvidence {
	if !g.g1bDone {
		g.g1b = findG1b(g.h, 1)
		g.g1bDone = true
	}
	return g.g1b
}

// buildObsGraph indexes a validated history's committed observations.
func buildObsGraph(h *history.History) *obsGraph {
	mustBeValidated(h)
	n := len(h.Txns)
	g := &obsGraph{
		h:         h,
		n:         n,
		wrOut:     make([][]int32, n),
		wrKey:     make(map[Edge]history.Key),
		readsOf:   make([]map[history.Key][]history.TxnID, n),
		writeKeys: make([][]history.Key, n),
	}
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			continue
		}
		addObs := func(key history.Key, w history.TxnID) {
			if w == t.ID {
				return
			}
			reads := g.readsOf[t.ID]
			if reads == nil {
				reads = make(map[history.Key][]history.TxnID)
				g.readsOf[t.ID] = reads
			}
			for _, prev := range reads[key] {
				if prev == w {
					return
				}
			}
			reads[key] = append(reads[key], w)
			if w != history.GenesisID {
				e := Edge{int32(w), int32(t.ID)}
				if _, dup := g.wrKey[e]; !dup {
					g.wrKey[e] = key
					g.wrOut[e.From] = append(g.wrOut[e.From], e.To)
				}
			}
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // unreachable on validated histories
			}
			addObs(key, ref.Txn)
		})
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case history.OpWrite, history.OpInsert, history.OpDelete:
				key := op.Key
				if ks := g.writeKeys[t.ID]; len(ks) > 0 && ks[len(ks)-1] == key {
					continue
				}
				dup := false
				for _, k := range g.writeKeys[t.ID] {
					if k == key {
						dup = true
						break
					}
				}
				if !dup {
					g.writeKeys[t.ID] = append(g.writeKeys[t.ID], key)
				}
			case history.OpRange:
				returned := make(map[history.Key]bool, len(op.Result))
				for _, v := range op.Result {
					returned[v.Key] = true
				}
				for _, k := range h.KeysInRange(op.Lo, op.Hi) {
					if !returned[k] {
						addObs(k, history.GenesisID)
					}
				}
			}
		}
	}
	return g
}

// coGraph is a level's forced commit-order relation: the wr edges, the
// genesis-first edges, and the derived saturation edges, with provenance
// for counterexample rendering.
type coGraph struct {
	out  [][]int32
	prov map[Edge]KnownEdge
}

// addEdge inserts a deduplicated edge with provenance.
func (c *coGraph) addEdge(e Edge, kind EdgeKind, key history.Key) {
	if e.From == e.To {
		return
	}
	if _, dup := c.prov[e]; dup {
		return
	}
	c.prov[e] = KnownEdge{Edge: e, Kind: kind, Key: key}
	c.out[e.From] = append(c.out[e.From], e.To)
}

// baseCo seeds the commit-order relation every polynomial level starts
// from: genesis before every committed transaction, and writers before
// their readers (wr ⊆ co). Read Committed stops here.
func (g *obsGraph) baseCo() *coGraph {
	c := &coGraph{
		out:  make([][]int32, g.n),
		prov: make(map[Edge]KnownEdge, len(g.wrKey)+g.n),
	}
	for _, t := range g.h.Txns[1:] {
		if t.Committed() {
			c.addEdge(Edge{0, int32(t.ID)}, EdgeWW, "")
		}
	}
	for from, tos := range g.wrOut {
		for _, to := range tos {
			e := Edge{int32(from), to}
			c.addEdge(e, EdgeWR, g.wrKey[e])
		}
	}
	return c
}

// saturate adds the derived co edges of the level's axiom: for each
// observation "t3 reads key from t1", every other key-writer t2 in t3's
// observed set — its direct wr predecessors for Read Atomic, its whole
// causal past for Causal — is forced to commit before t1. observed yields
// the observed set of one reader.
func (g *obsGraph) saturate(c *coGraph, observed func(t3 history.TxnID, visit func(t2 history.TxnID))) {
	for _, t3 := range g.h.Txns[1:] {
		if !t3.Committed() || g.readsOf[t3.ID] == nil {
			continue
		}
		reads := g.readsOf[t3.ID]
		observed(t3.ID, func(t2 history.TxnID) {
			if t2 == history.GenesisID || t2 == t3.ID {
				return
			}
			for _, key := range g.writeKeys[t2] {
				for _, t1 := range reads[key] {
					if t1 != t2 {
						c.addEdge(Edge{int32(t2), int32(t1)}, EdgeWW, key)
					}
				}
			}
		})
	}
}

// directObserved yields each reader's direct wr predecessors (the Read
// Atomic premise).
func (g *obsGraph) directObserved(t3 history.TxnID, visit func(history.TxnID)) {
	for _, writers := range g.readsOf[t3] {
		for _, w := range writers {
			visit(w)
		}
	}
}

// coCheck decides acyclicity of a forced commit-order relation, filling
// the report with either a provenance-annotated counterexample cycle or a
// topological witness order.
func coCheck(rep *Report, g *obsGraph, c *coGraph, opts Options) *Report {
	rep.Nodes = g.n
	rep.KnownEdges = len(c.prov)
	if cyc := acyclic.FindCycle(g.n, c.out); cyc != nil {
		rep.Outcome = Reject
		for i := range cyc {
			e := Edge{cyc[i], cyc[(i+1)%len(cyc)]}
			if ke, ok := c.prov[e]; ok {
				rep.KnownCycle = append(rep.KnownCycle, ke)
			} else {
				rep.KnownCycle = append(rep.KnownCycle, KnownEdge{Edge: e})
			}
		}
		if opts.SelfCheck {
			// The rejecting self-check re-derives the forced relation from
			// the history and confirms the counterexample is a genuine cycle
			// of forced edges.
			if err := verifyCoCycle(g.h, rep.KnownCycle, rep.Level); err != nil {
				rep.SelfCheckErr = err
			} else {
				rep.WitnessVerified = true
			}
		}
		return rep
	}
	order, ok := acyclic.TopoBFS(g.n, c.out, nil)
	if !ok {
		// Unreachable: FindCycle found none.
		rep.Outcome = Reject
		return rep
	}
	rep.Outcome = Accept
	rep.WitnessPositions = positionsOf(order)
	if opts.SelfCheck {
		if err := VerifyWitness(g.h, rep.WitnessPositions, rep.Level); err != nil {
			rep.SelfCheckErr = err
		} else {
			rep.WitnessVerified = true
		}
	}
	return rep
}

// checkReadAtomic decides Read Atomic for a validated history.
func checkReadAtomic(h *history.History, opts Options) *Report {
	return checkReadAtomicGraph(h, buildObsGraph(h), opts)
}

// checkReadAtomicGraph is checkReadAtomic over a prebuilt observation
// index (the verdict matrix shares one across levels).
func checkReadAtomicGraph(h *history.History, g *obsGraph, opts Options) *Report {
	rep := &Report{Level: ReadAtomic, Outcome: Accept}
	if ev := g.firstG1b(); ev != nil {
		rep.Outcome = Reject
		rep.Anomaly = ev.String()
		return rep
	}
	c := g.baseCo()
	g.saturate(c, g.directObserved)
	return coCheck(rep, g, c, opts)
}
