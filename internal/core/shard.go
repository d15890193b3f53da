// Distributed shard records: the record-and-replay seam of parallel.go
// lifted across process boundaries.
//
// Construction already splits into two halves with a clean data
// interface between them: a per-key recording pass that needs nothing
// but the history, and a deterministic replay that folds the records
// into the polygraph in key order. Workers in a cluster run the
// recording pass over their key range and ship the records — the
// "digest" of everything their shard contributes to the global
// polygraph: read-dependency edges, writer-chain known edges, and
// undecided either/or constraints, all referencing global node ids. The
// coordinator replays every shard's records in ascending key order,
// exactly as a single node's replay would, so the merged polygraph — and
// therefore the verdict and any violation evidence — is byte-identical
// to Build over the full history for any shard count and any assignment
// of keys to shards.
//
// Two streaming seams let the cluster overlap this work with the
// network: BuildShardRecordsOrdered emits each key's record as soon as
// it is complete (in key order, while later keys are still recording),
// and ShardMerger accepts records in any arrival order, replaying the
// read-dependency pass incrementally behind a contiguous-key frontier.
// The constraint-pass replay is order-sensitive across keys (duplicate
// suppression against the evolving known set), so it runs at Finish,
// after every record has arrived; the merged polygraph is still
// byte-identical to the batch merge and to Build.
//
// The types here are wire-friendly (flat int32 edge arrays, short JSON
// tags) because internal/cluster serializes them between nodes.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/history"
)

// ShardOp is one recorded emission of the per-key constraint pass, in
// wire form (keyOp with edges flattened to [from,to,...] int32 runs).
type ShardOp struct {
	// Cons distinguishes the two emission kinds: false is a known-edge
	// add (Edge/Kind), true an either/or constraint (First/Second/...).
	Cons bool `json:"c,omitempty"`

	// Known-edge add: Edge holds [from, to].
	Edge []int32 `json:"e,omitempty"`
	Kind uint8   `json:"k,omitempty"` // EdgeKind; also the first side's kind for constraints

	// Constraint sides, flattened from,to pairs. FBad/SBad mark sides
	// that contained an impossible edge at record time.
	First  []int32 `json:"f,omitempty"`
	Second []int32 `json:"s,omitempty"`
	FBad   bool    `json:"fb,omitempty"`
	SBad   bool    `json:"sb,omitempty"`
	Kind2  uint8   `json:"k2,omitempty"`

	// ID is the constraint's cross-audit identity ([from1,to1,from2,to2])
	// when it has one; empty otherwise.
	ID []int32 `json:"id,omitempty"`
}

// KeyShardRecord is everything one key contributes to the polygraph, in
// wire form: the digest unit workers ship to the coordinator.
type KeyShardRecord struct {
	Key string `json:"key"`
	// WR is the key's read-dependency edges, flattened from,to pairs, in
	// emission order.
	WR []int32 `json:"wr,omitempty"`
	// Ops is the key's constraint-pass emissions, in emission order.
	Ops []ShardOp `json:"ops,omitempty"`
}

// flattenInto appends es to the slab as from,to pairs and returns their
// capacity-capped view (nil when es is empty).
func flattenInto(slab *[]int32, es ...Edge) []int32 {
	if len(es) == 0 {
		return nil
	}
	a := len(*slab)
	for _, e := range es {
		*slab = append(*slab, e.From, e.To)
	}
	b := len(*slab)
	return (*slab)[a:b:b]
}

// unflattenInto appends the from,to pairs of fs to the slab and returns
// their capacity-capped view (nil when fs is empty).
func unflattenInto(slab *[]Edge, fs []int32) []Edge {
	if len(fs) < 2 {
		return nil
	}
	a := len(*slab)
	for i := 0; i+1 < len(fs); i += 2 {
		*slab = append(*slab, Edge{From: fs[i], To: fs[i+1]})
	}
	b := len(*slab)
	return (*slab)[a:b:b]
}

func toShardOp(op *keyOp, slab *[]int32) ShardOp {
	so := ShardOp{Cons: op.cons, Kind: uint8(op.kind)}
	if !op.cons {
		so.Edge = flattenInto(slab, op.edge)
		return so
	}
	so.First = flattenInto(slab, op.first...)
	so.Second = flattenInto(slab, op.second...)
	so.FBad, so.SBad = op.fBad, op.sBad
	so.Kind2 = uint8(op.kind2)
	if op.hasID {
		so.ID = flattenInto(slab, op.id[0], op.id[1])
	}
	return so
}

func fromShardOp(so *ShardOp, slab *[]Edge) keyOp {
	op := keyOp{cons: so.Cons, kind: EdgeKind(so.Kind)}
	if !so.Cons {
		if len(so.Edge) == 2 {
			op.edge = Edge{From: so.Edge[0], To: so.Edge[1]}
		}
		return op
	}
	op.first = unflattenInto(slab, so.First)
	op.second = unflattenInto(slab, so.Second)
	op.fBad, op.sBad = so.FBad, so.SBad
	op.kind2 = EdgeKind(so.Kind2)
	if len(so.ID) == 4 {
		op.id = [2]Edge{{so.ID[0], so.ID[1]}, {so.ID[2], so.ID[3]}}
		op.hasID = true
	}
	return op
}

// toWireRecord converts one key's record to wire form, with every edge
// run a capacity-capped view of one int32 slab for the key.
func toWireRecord(key history.Key, out *keyRecord) KeyShardRecord {
	n := 2 * len(out.wr)
	for j := range out.ops {
		op := &out.ops[j]
		if !op.cons {
			n += 2
			continue
		}
		n += 2 * (len(op.first) + len(op.second))
		if op.hasID {
			n += 4
		}
	}
	slab := make([]int32, 0, n)
	rec := KeyShardRecord{Key: string(key), WR: flattenInto(&slab, out.wr...)}
	if n := len(out.ops); n > 0 {
		rec.Ops = make([]ShardOp, n)
		for j := range out.ops {
			rec.Ops[j] = toShardOp(&out.ops[j], &slab)
		}
	}
	return rec
}

// BuildShardRecordsOrdered runs the per-key recording pass over keys and
// hands each key's record to emit in ascending key-index order, calling
// emit for key i as soon as every key ≤ i has been recorded — while the
// pool is still recording later keys. This is the streaming seam the
// cluster worker uses to put early records on the wire before the shard
// finishes. The records passed to emit are identical to
// BuildShardRecords' output; emit is called from the calling goroutine
// only. An emit error aborts the remaining work and is returned.
func BuildShardRecordsOrdered(h *history.History, opts Options, keys []history.Key, emit func(i int, rec *KeyShardRecord) error) error {
	if len(keys) == 0 {
		return nil
	}
	// The session indexer and regenKey, exactly as a check records: the
	// recording pass reads only the indexes and the node layout.
	inc := sessionOver(h, opts)
	inc.update()
	lite := &Polygraph{ser: inc.ser()}
	combine, coalesce := !opts.DisableCombineWrites, !opts.DisableCoalesce

	outs := make([]*keyRecord, len(keys))
	done := make([]atomic.Bool, len(keys))
	// One send per key: a recording goroutine never blocks, even after
	// the emitter has stopped reading.
	ready := make(chan struct{}, len(keys))
	var abort atomic.Bool
	recorded := make(chan struct{})
	go func() {
		defer close(recorded)
		forEachKey(len(keys), opts.workers(), func(i int) {
			if abort.Load() {
				return
			}
			outs[i], _ = inc.regenKey(lite, keys[i], combine, coalesce)
			done[i].Store(true)
			ready <- struct{}{}
		})
	}()

	var emitErr error
	for next := 0; next < len(keys); {
		if !done[next].Load() {
			<-ready
			continue
		}
		rec := toWireRecord(keys[next], outs[next])
		if emitErr = emit(next, &rec); emitErr != nil {
			abort.Store(true)
			break
		}
		outs[next] = nil // release as we go: the shard may be large
		next++
	}
	<-recorded
	return emitErr
}

// BuildShardRecords runs the per-key recording pass over the given keys
// and returns their records in wire form, in the given key order. The
// history must be validated; keys must be a subset of h.Keys(). Node ids
// in the records are global: they are derived from transaction ids
// alone, so records computed by different workers over disjoint key sets
// compose. opts.Parallelism bounds the local worker pool; the output is
// identical for any worker count.
func BuildShardRecords(h *history.History, opts Options, keys []history.Key) []KeyShardRecord {
	recs := make([]KeyShardRecord, len(keys))
	// The emit callback never errors, so Ordered cannot either.
	_ = BuildShardRecordsOrdered(h, opts, keys, func(i int, rec *KeyShardRecord) error {
		recs[i] = *rec
		return nil
	})
	return recs
}

// ShardMerger replays shard records into a polygraph incrementally, in
// whatever order they arrive. It maintains a contiguous-key frontier:
// when records 0..i are all present, their read-dependency edges have
// been replayed (that pass is key-ordered but independent of later
// keys). The constraint-pass replay consults the evolving known set and
// must see every WR edge of every key first, so it runs in Finish once
// all records are in. Add is safe for concurrent use and idempotent:
// a duplicate record for a key it already holds is ignored, which makes
// retried dispatches (where the first attempt died mid-stream after
// some records were applied) safe — the recording pass is deterministic,
// so any complete copy of a key's record is identical.
type ShardMerger struct {
	h    *history.History
	opts Options

	mu       sync.Mutex
	pg       *Polygraph
	recs     []KeyShardRecord
	have     []bool
	frontier int
	replay   time.Duration
	finished bool
}

// NewShardMerger prepares the global polygraph skeleton (node layout,
// intra-transaction edges) and an empty record table over h.Keys().
func NewShardMerger(h *history.History, opts Options) *ShardMerger {
	pg := newPolygraph(h, opts.Level)
	pg.initNodeTS()
	pg.addIntraEdges()
	return &ShardMerger{
		h:    h,
		opts: opts,
		pg:   pg,
		recs: make([]KeyShardRecord, len(h.Keys())),
		have: make([]bool, len(h.Keys())),
	}
}

// Add accepts the record for key index i of h.Keys() and advances the
// read-dependency replay frontier over any newly contiguous prefix.
// Records already held are ignored (see the type comment).
func (m *ShardMerger) Add(i int, rec KeyShardRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := m.h.Keys()
	if i < 0 || i >= len(keys) {
		return fmt.Errorf("shard merge: record index %d out of range (history has %d keys)", i, len(keys))
	}
	if rec.Key != string(keys[i]) {
		return fmt.Errorf("shard merge: record %d is key %q, want %q (records must cover h.Keys() in order)", i, rec.Key, keys[i])
	}
	if m.finished {
		return fmt.Errorf("shard merge: Add after Finish")
	}
	if m.have[i] {
		return nil
	}
	start := time.Now()
	m.recs[i] = rec
	m.have[i] = true
	for m.frontier < len(keys) && m.have[m.frontier] {
		key, wr := keys[m.frontier], m.recs[m.frontier].WR
		for k := 0; k+1 < len(wr); k += 2 {
			m.pg.addKnown(Edge{From: wr[k], To: wr[k+1]}, EdgeWR, key)
		}
		m.frontier++
	}
	m.replay += time.Since(start)
	return nil
}

// Records returns the held records for key indices [lo, hi). Only valid
// once every key in the range has been added; the caller must not
// mutate the result.
func (m *ShardMerger) Records(lo, hi int) []KeyShardRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs[lo:hi]
}

// ReplayNS is the cumulative time spent replaying records (Add frontier
// advances plus Finish's constraint pass).
func (m *ShardMerger) ReplayNS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.replay)
}

// Finish verifies coverage, replays every key's constraint-pass
// emissions in key order, and completes the polygraph (session and
// real-time edges). The result is byte-identical to Build(h, opts).
func (m *ShardMerger) Finish() (*Polygraph, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return nil, fmt.Errorf("shard merge: Finish called twice")
	}
	keys := m.h.Keys()
	if m.frontier != len(keys) {
		for i := range m.have {
			if !m.have[i] {
				return nil, fmt.Errorf("shard merge: no record for key %q (index %d)", keys[i], i)
			}
		}
	}
	m.finished = true
	start := time.Now()
	// Count first: Known grows once, and Cons and one slab behind every
	// decoded constraint side are allocated once. The known set already
	// holds the intra-transaction and read-dependency edges Add replayed.
	known, cons, edges := 0, 0, 0
	for i := range m.recs {
		for j := range m.recs[i].Ops {
			so := &m.recs[i].Ops[j]
			k, c := replaySize(so.Cons, so.FBad, so.SBad, len(so.First)/2, len(so.Second)/2)
			known += k
			cons += c
			edges += (len(so.First) + len(so.Second)) / 2
		}
	}
	m.pg.Known = append(make([]KnownEdge, 0, len(m.pg.Known)+known), m.pg.Known...)
	m.pg.knownSet.Reserve(len(m.pg.Known) + known)
	m.pg.Cons = make([]Constraint, 0, cons)
	slab := make([]Edge, 0, edges)
	for i, key := range keys {
		for j := range m.recs[i].Ops {
			op := fromShardOp(&m.recs[i].Ops[j], &slab)
			m.pg.applyOp(&op, key)
		}
	}
	m.pg.nilIfEmpty()
	if m.opts.Level == StrongSessionSI {
		m.pg.addSessionEdges()
	}
	if m.opts.Level.needsRealTime() {
		m.pg.addRealTimeEdges(m.opts)
	}
	m.replay += time.Since(start)
	return m.pg, nil
}

// CheckMergedContext finishes an incremental merge and checks the
// result: the same polynomial-level dispatch and G1b screen as
// CheckHistoryContext, with replay time attributed to the construct
// phase. The merger must hold a record for every key of its history.
// The verdict and its evidence (anomaly string, known cycle, constraint
// set) are those of CheckHistoryContext on the same history.
func CheckMergedContext(ctx context.Context, m *ShardMerger) (*Report, error) {
	if m.opts.Level.Polynomial() {
		return checkPolynomial(m.h, m.opts), nil
	}
	if ev := findG1b(m.h, 1); ev != nil {
		n := len(m.h.Txns)
		if m.opts.Level != Serializability {
			n *= 2
		}
		return &Report{
			Level:   m.opts.Level,
			Outcome: Reject,
			Anomaly: ev.String(),
			Nodes:   n,
		}, nil
	}
	pg, err := m.Finish()
	if err != nil {
		return nil, err
	}
	replay := time.Duration(m.ReplayNS())
	rep := CheckPolygraphContext(ctx, pg, m.opts)
	rep.Phases.Construct += replay
	rep.Phases.ConstructCPU += replay
	return rep, nil
}
