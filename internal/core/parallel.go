// Per-key construction: the records of warm audits and shards, and the
// one cold construction.
//
// Constraint generation is O(n²) in the worst case (pairwise writer-chain
// constraints per key) but independent across keys. Every polygraph is
// therefore built per key, from the session indexer's per-key writer
// lists and readers index (Incremental.update, which folds transactions
// in id order), under a work-stealing pool (forEachKey): goroutines claim
// key indices from an atomic cursor (per-key costs vary wildly) and write
// their output into a slot indexed by key position, so the schedule
// cannot influence the result.
//
// Cold construction — Build, every one-shot check and every cold session
// audit — is the window stage (window.go), in two per-key passes:
//
//  1. Each key's read-dependency edges and the known part of its
//     emissions are recorded into a KeyRecord and assembled in key order
//     (assemblePolygraph) with the level's session and real-time edges:
//     the finished known graph.
//  2. Each key's writer-chain pairs (all of them at radius 0) are written
//     straight into the key's region of one Cons slab, their sides
//     filtered against that known set, which is read-only by then.
//
// A KeyRecord holding a key's full emissions (Incremental.regenKey) serves
// the two consumers that need them per key: a warm audit, which encodes a
// dirty key's delta into its carried solver (incremental.go), and a
// cluster worker, which ships its keys' records to the coordinator
// (shard.go). assemblePolygraph turns records into a polygraph the way
// the window builds one: every known edge first, then each key's
// constraints in key order, filtered against the finished known set by
// the same rule (Polygraph.certain). Build, a stamped cold check and a
// cluster merge therefore hold one polygraph, edge for edge and in the
// same order, for any worker count and any split of the keys across
// cluster workers.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/history"
)

// KeyOp is one recorded emission of the per-key constraint pass.
type KeyOp struct {
	Cons bool // false: known-edge add; true: constraint

	// Known-edge add (classify already applied; same-transaction edges
	// never recorded).
	Edge Edge
	Kind EdgeKind // also the first side's kind for constraints

	// Constraint: sides resolved through classify, with knownSet
	// filtering deferred to the assembly. A side is empty when every edge
	// held trivially.
	First, Second []Edge
	Kind2         EdgeKind
}

// KeyRecord is everything one key contributes to the polygraph: the unit
// a session stores per key, and the unit a cluster worker ships per key.
// Node ids are global (derived from transaction ids alone), so records
// made by different workers over disjoint key sets compose. Empty runs
// are nil.
type KeyRecord struct {
	WR  []Edge  // read-dependency edges, in emission order
	Ops []KeyOp // constraint-pass emissions, in emission order
	// Sides is the slab behind every constraint side in Ops: each side is
	// a read-only, capacity-capped view Sides[a:b:b], the views tiling the
	// slab in emission order, so no append through a side can reach its
	// neighbour.
	Sides []Edge
}

// keyRecorder records one key's emissions into rec; pg is only read
// (classify), never written.
type keyRecorder struct {
	pg  *Polygraph
	rec *KeyRecord
}

// reserve allocates the key's ops and side slab once, before the first
// emission: ops is exactly the number of knownEvent emissions that
// classify as normal plus constraint emissions, and edges bounds the
// constraint-side edges they resolve to (regenKey counts both, with
// knownOps and pairsSize).
func (kr keyRecorder) reserve(ops, edges int) {
	if ops > 0 {
		kr.rec.Ops = make([]KeyOp, 0, ops)
	}
	if edges > 0 {
		kr.rec.Sides = make([]Edge, 0, edges)
	}
}

// knownEvent records a certain event-level edge (elided when classify
// finds it within one transaction, where it holds trivially).
func (kr keyRecorder) knownEvent(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool, kind EdgeKind, key history.Key) {
	if e, ok := kr.pg.classify(fromT, fromCommit, toT, toCommit); ok {
		kr.rec.Ops = append(kr.rec.Ops, KeyOp{Edge: e, Kind: kind})
	}
}

// constraint records an either/or constraint over event-level edge sets.
// The sides are scratch the caller reuses: they are resolved into the
// key's slab.
func (kr keyRecorder) constraint(first, second []eventEdge, kind1, kind2 EdgeKind, key history.Key) {
	kr.rec.Ops = append(kr.rec.Ops, KeyOp{
		Cons: true, First: kr.side(first), Second: kr.side(second),
		Kind: kind1, Kind2: kind2,
	})
}

// side resolves one constraint side through classify into the key's slab
// and returns its view, nil when the side is empty (every edge trivially
// true).
func (kr keyRecorder) side(side []eventEdge) []Edge {
	rec := kr.rec
	a := len(rec.Sides)
	for _, ee := range side {
		if e, ok := kr.pg.classify(ee.fromT, ee.fromCommit, ee.toT, ee.toCommit); ok {
			rec.Sides = append(rec.Sides, e)
		}
	}
	b := len(rec.Sides)
	if b == a {
		return nil
	}
	return rec.Sides[a:b:b]
}

// recordReadDeps records one key's read-dependency edges (commit of
// writer → begin of reader), in writer order and, per writer, in reader
// order. Reads from genesis need no edge. Readers never equal their
// writer (Incremental.addReader drops self-reads), so classify drops no
// edge and the count is exact.
func recordReadDeps(pg *Polygraph, byWriter map[history.TxnID][]history.TxnID, rec *KeyRecord) {
	n := 0
	for w, rs := range byWriter {
		if w != history.GenesisID {
			n += len(rs)
		}
	}
	if n == 0 {
		return
	}
	rec.WR = make([]Edge, 0, n)
	for _, w := range sortedTxns(byWriter) {
		if w == history.GenesisID {
			continue
		}
		for _, r := range byWriter[w] {
			if e, ok := pg.classify(w, true, r, false); ok {
				rec.WR = append(rec.WR, e)
			}
		}
	}
}

// replayKnown folds the known part of per-key records (indexed like
// keys; nil contributes nothing) into a fresh polygraph shell:
// intra-transaction edges, every key's read-dependency edges in key
// order, then every key's recorded known edges in key order. It counts
// over the records first, so Known, Cons and knownSet are each allocated
// once, and returns where each record's constraint ops start, so that
// replayCons reads only those (a record lists its key's known ops first;
// regenKey).
func (pg *Polygraph) replayKnown(keys []history.Key, recs []*KeyRecord) (consAt []int) {
	known, cons := 0, 0
	if !pg.ser {
		known = len(pg.H.Txns)
	}
	consAt = make([]int, len(recs))
	knownTo := make([]int, len(recs)) // one past each record's last known op
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		known += len(rec.WR)
		consAt[i] = len(rec.Ops)
		for j := range rec.Ops {
			if rec.Ops[j].Cons {
				cons++
				consAt[i] = min(consAt[i], j)
			} else {
				known++
				knownTo[i] = j + 1
			}
		}
	}
	pg.Known = make([]KnownEdge, 0, known)
	pg.Cons = make([]Constraint, 0, cons)
	pg.knownSet.Reserve(known)

	pg.addIntraEdges()
	for i, rec := range recs {
		if rec != nil {
			for _, e := range rec.WR {
				pg.addKnown(e, EdgeWR, keys[i])
			}
		}
	}
	for i, rec := range recs {
		if rec != nil {
			for j := range rec.Ops[:knownTo[i]] {
				if op := &rec.Ops[j]; !op.Cons {
					pg.addKnown(op.Edge, op.Kind, keys[i])
				}
			}
		}
	}
	return consAt
}

// replayCons appends every key's recorded constraints, from consAt on, to
// the polygraph in key order, their sides filtered against the finished
// known set (certain). Records are only read, so the same records can be
// assembled again.
func (pg *Polygraph) replayCons(keys []history.Key, recs []*KeyRecord, consAt []int) {
	// Filter without mutating the record. The no-known-edge common case
	// stays allocation-free by aliasing the record's slab view; a filtered
	// side is a copy, capped like the views.
	filter := func(side []Edge) []Edge {
		for i, e := range side {
			if pg.certain(e) {
				kept := make([]Edge, i, len(side)-1)
				copy(kept, side[:i])
				for _, rest := range side[i+1:] {
					if !pg.certain(rest) {
						kept = append(kept, rest)
					}
				}
				return kept[:len(kept):len(kept)]
			}
		}
		return side
	}
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		for j := consAt[i]; j < len(rec.Ops); j++ {
			op := &rec.Ops[j]
			if !op.Cons {
				continue
			}
			f, s := filter(op.First), filter(op.Second)
			if len(f) == 0 || len(s) == 0 {
				continue // one side holds trivially: the constraint imposes nothing
			}
			pg.Cons = append(pg.Cons, Constraint{First: f, Second: s, Kind1: op.Kind, Kind2: op.Kind2, Key: keys[i]})
		}
	}
}

// assemblePolygraph builds h's polygraph at opts.Level from per-key
// records (indexed like h.Keys(); nil contributes nothing): the node
// layout and wall-clock hints, the records' known edges, the level's
// session and real-time edges, and then the records' constraints,
// filtered against that finished known set. The window's first pass
// assembles its known-only records with it, and ShardMerger the records
// a cluster's shards ship.
func assemblePolygraph(h *history.History, opts Options, recs []*KeyRecord) *Polygraph {
	pg := newPolygraph(h, opts.Level)
	pg.initNodeTS()
	keys := h.Keys()
	consAt := pg.replayKnown(keys, recs)
	if opts.Level == StrongSessionSI {
		pg.addSessionEdges()
	}
	if opts.Level.needsRealTime() {
		pg.addRealTimeEdges(opts)
	}
	pg.replayCons(keys, recs, consAt)
	pg.nilIfEmpty()
	return pg
}

// nilIfEmpty resets Known and Cons that construction presized but left
// empty (the counts are bounds: duplicates and trivially-held constraints
// drop out) to nil.
func (pg *Polygraph) nilIfEmpty() {
	if len(pg.Known) == 0 {
		pg.Known = nil
	}
	if len(pg.Cons) == 0 {
		pg.Cons = nil
	}
}

// certain reports whether e is a known edge. It is the one rule every
// constraint side is filtered by, against the finished known set: a known
// edge holds in every compatible graph, so it drops out of its side, and
// a side left empty holds trivially, so its constraint imposes nothing.
func (pg *Polygraph) certain(e Edge) bool {
	return pg.knownSet.Has(e.From, e.To)
}

// forEachKey calls fn(i) for every i in [0, n) on min(workers, n)
// goroutines, the caller's among them, which claim indices from a shared
// cursor so that uneven per-key costs balance. It returns the pass's wall
// time and the busy time summed over its goroutines.
func forEachKey(n, workers int, fn func(i int)) (wall, cpu time.Duration) {
	start := time.Now()
	var cursor, busy atomic.Int64
	run := func() {
		t0 := time.Now()
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			fn(i)
		}
		busy.Add(int64(time.Since(t0)))
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return time.Since(start), time.Duration(busy.Load())
}
