// Distributed shard records: the record-and-assemble seam of parallel.go
// lifted across process boundaries.
//
// A key's record needs nothing but the history, and a deterministic
// assembly folds records into the polygraph in key order. Workers in a
// cluster record their key range (Incremental.regenKey) and ship each
// key's KeyRecord — the "digest" of everything their shard contributes to
// the global polygraph: read-dependency edges, writer-chain known edges,
// and undecided either/or constraints, all referencing global node ids.
// The coordinator files every shard's records in a ShardMerger and, once
// all have arrived, assembles them (assemblePolygraph): every known edge
// first, then the constraints, filtered against the finished known set
// by the rule the window's pass 2 filters by. The merged polygraph is
// therefore byte-identical to Build over the full history for any shard
// count and any assignment of keys to shards.
//
// BuildShardRecordsOrdered emits each key's record as soon as it is
// complete (in key order, while later keys are still recording), so a
// worker puts early records on the wire before its shard finishes.
// ShardMerger accepts records in any arrival order and ignores copies of
// records it holds; the assembly waits for the last record, because every
// constraint is filtered against every key's known edges.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/history"
)

// BuildShardRecordsOrdered runs the per-key recording pass over keys and
// hands each key's record to emit in ascending key-index order, calling
// emit for key i as soon as every key ≤ i has been recorded — while the
// pool is still recording later keys. This is the streaming seam the
// cluster worker uses to put early records on the wire before the shard
// finishes. The records passed to emit are identical to
// BuildShardRecords' output; emit is called from the calling goroutine
// only. An emit error aborts the remaining work and is returned.
func BuildShardRecordsOrdered(h *history.History, opts Options, keys []history.Key, emit func(i int, rec *KeyRecord) error) error {
	if len(keys) == 0 {
		return nil
	}
	// The session indexer and regenKey, exactly as a warm audit records:
	// the recording pass reads only the indexes and the node layout.
	inc := sessionOver(h, opts)
	inc.update()
	lite := &Polygraph{ser: inc.ser()}
	combine, coalesce := !opts.DisableCombineWrites, !opts.DisableCoalesce

	outs := make([]*KeyRecord, len(keys))
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
		if emitErr = emit(next, outs[next]); emitErr != nil {
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
// and returns their records, in the given key order. The history must be
// validated; keys must be a subset of h.Keys(). opts.Parallelism bounds
// the local worker pool; the output is identical for any worker count.
func BuildShardRecords(h *history.History, opts Options, keys []history.Key) []*KeyRecord {
	recs := make([]*KeyRecord, len(keys))
	// The emit callback never errors, so Ordered cannot either.
	_ = BuildShardRecordsOrdered(h, opts, keys, func(i int, rec *KeyRecord) error {
		recs[i] = rec
		return nil
	})
	return recs
}

// ShardMerger is a table of per-key records over h.Keys(), filled by
// shard dispatches in whatever order their records arrive and assembled
// once by Finish. Add is safe for concurrent use and idempotent: a
// record for a key the table already holds is ignored, which makes
// retried dispatches (where the first attempt died mid-stream after some
// records were added) safe — the recording pass is deterministic, so any
// complete copy of a key's record is identical. Records must name only
// nodes of h's layout (NodeCount) and no self-loops, as recording does;
// the cluster's digest decoder refuses any other.
type ShardMerger struct {
	h    *history.History
	opts Options

	mu       sync.Mutex
	recs     []*KeyRecord
	replay   time.Duration
	finished bool
}

// NewShardMerger returns an empty record table over h.Keys().
func NewShardMerger(h *history.History, opts Options) *ShardMerger {
	return &ShardMerger{h: h, opts: opts, recs: make([]*KeyRecord, len(h.Keys()))}
}

// Add files rec as the record of key index i of h.Keys(); records already
// held are ignored (see the type comment). The merger keeps rec; the
// caller must not modify it.
func (m *ShardMerger) Add(i int, rec *KeyRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.recs) {
		return fmt.Errorf("shard merge: record index %d out of range (history has %d keys)", i, len(m.recs))
	}
	if m.finished {
		return fmt.Errorf("shard merge: Add after Finish")
	}
	if m.recs[i] == nil {
		m.recs[i] = rec
	}
	return nil
}

// Records returns the held records for key indices [lo, hi). Only valid
// once every key in the range has been added; the caller must not
// mutate the result.
func (m *ShardMerger) Records(lo, hi int) []*KeyRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs[lo:hi]
}

// ReplayNS is the time Finish spent assembling the polygraph.
func (m *ShardMerger) ReplayNS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.replay)
}

// Finish verifies coverage and assembles the table (assemblePolygraph).
// The result is byte-identical to Build(h, opts).
func (m *ShardMerger) Finish() (*Polygraph, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return nil, fmt.Errorf("shard merge: Finish called twice")
	}
	for i, rec := range m.recs {
		if rec == nil {
			return nil, fmt.Errorf("shard merge: no record for key %q (index %d)", m.h.Keys()[i], i)
		}
	}
	m.finished = true
	start := time.Now()
	pg := assemblePolygraph(m.h, m.opts, m.recs)
	m.replay = time.Since(start)
	return pg, nil
}

// CheckMergedContext finishes an incremental merge and checks the
// result: the same polynomial-level dispatch and G1b screen as
// CheckHistoryContext, with replay time attributed to the construct
// phase. The merger must hold a record for every key of its history.
// The merged polygraph holds every writer pair. Its verdict, anomaly,
// node count and known edges are those of CheckHistoryContext on the
// same history. The constraint set is too when the single node runs a
// timestamp stage, whose window is built at radius 0, every pair. On
// unstamped input, or with the stage off, the single node's window holds
// only the pairs its §3.5 passes reached, so its constraint count,
// solver statistics and a refutation's named cycle can differ.
func CheckMergedContext(ctx context.Context, m *ShardMerger) (*Report, error) {
	if m.opts.Level.Polynomial() {
		return checkPolynomial(m.h, m.opts), nil
	}
	g1bReg := m.opts.Tracer.Start("g1b")
	ev := findG1b(m.h, 1)
	g1bReg.End()
	if ev != nil {
		return &Report{
			Level:   m.opts.Level,
			Outcome: Reject,
			Anomaly: ev.String(),
			Nodes:   int(NodeCount(m.h, m.opts.Level)),
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
