package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

// comparePolygraphs fails unless the two builds are byte-identical:
// same nodes, same known-edge list (content and order), same constraint
// list, same contradiction flag, same stats. Every constraint side of got
// must also be a capacity-capped view (no append through one can reach a
// neighbouring side of the record's slab).
func comparePolygraphs(t *testing.T, want, got *Polygraph, label string) {
	t.Helper()
	for i, c := range got.Cons {
		if cap(c.First) != len(c.First) || cap(c.Second) != len(c.Second) {
			t.Fatalf("%s: constraint %d sides len/cap %d/%d and %d/%d, want capped",
				label, i, len(c.First), cap(c.First), len(c.Second), cap(c.Second))
		}
	}
	if want.NumNodes != got.NumNodes {
		t.Fatalf("%s: nodes %d vs %d", label, want.NumNodes, got.NumNodes)
	}
	if !reflect.DeepEqual(want.Known, got.Known) {
		t.Fatalf("%s: known edges differ:\nwant: %v\ngot:  %v", label, want.Known, got.Known)
	}
	if !reflect.DeepEqual(want.Cons, got.Cons) {
		t.Fatalf("%s: constraints differ:\nwant: %v\ngot:  %v", label, want.Cons, got.Cons)
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, want.Stats(), got.Stats())
	}
}

// regenStore returns the records regen makes for an indexed session
// without warm state, every written key's, by key.
func regenStore(inc *Incremental) map[history.Key]*KeyRecord {
	keys, recs, _, _, _ := inc.regen()
	store := make(map[history.Key]*KeyRecord, len(keys))
	for i, key := range keys {
		store[key] = recs[i]
	}
	return store
}

// assembleStore assembles a session's records by key (regenStore) into a
// polygraph (assemblePolygraph), the way ShardMerger assembles a
// cluster's records.
func assembleStore(inc *Incremental, store map[history.Key]*KeyRecord) *Polygraph {
	keys := inc.h.Keys()
	recs := make([]*KeyRecord, len(keys))
	for i, key := range keys {
		recs[i] = store[key]
	}
	return assemblePolygraph(inc.h, inc.opts, recs)
}

// TestShardedBuildIdenticalToSerial is the construction-determinism
// differential: for every level and optimization combination, Build with
// Parallelism 2, 3, and 8 must produce a polygraph identical to Build
// with one recording worker. Both run the same record-and-replay path, so
// this pins scheduling independence; TestPolygraphDigests pins the
// polygraph itself.
func TestShardedBuildIdenticalToSerial(t *testing.T) {
	histories := map[string]*history.History{
		"figure2":     figure2(t),
		"long-fork":   longFork(t),
		"lost-update": lostUpdate(t),
		"write-skew":  writeSkew(t),
		"read-skew":   readSkew(t),
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 6; i++ {
		histories["random-serial"] = randomSerialHistory(rng, 30+rng.Intn(40), 5, 3)
	}
	levels := []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability}
	for name, h := range histories {
		for _, level := range levels {
			for _, combo := range []Options{
				{Level: level},
				{Level: level, DisableCombineWrites: true},
				{Level: level, DisableCoalesce: true},
				{Level: level, DisableCombineWrites: true, DisableCoalesce: true},
			} {
				serialOpts := combo
				serialOpts.Parallelism = 1
				serial := Build(h, serialOpts)
				for _, p := range []int{2, 3, 8} {
					parOpts := combo
					parOpts.Parallelism = p
					comparePolygraphs(t, serial, Build(h, parOpts), name+"/"+level.String())
				}
			}
		}
	}
}

// TestShardedBuildOnGeneratedWorkload runs the worker-count differential
// on a real concurrent workload (constraint-heavy blind writes) and
// additionally checks that the verdict and graph statistics agree end to
// end.
func TestShardedBuildOnGeneratedWorkload(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 16, Txns: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	serial := Build(h, Options{Level: AdyaSI, Parallelism: 1})
	for _, p := range []int{2, 8} {
		comparePolygraphs(t, serial, Build(h, Options{Level: AdyaSI, Parallelism: p}), "blindw-rw")
	}
	want := CheckHistory(h, Options{Level: AdyaSI, Parallelism: 1})
	for _, p := range []int{0, 2, 8} {
		rep := CheckHistory(h, Options{Level: AdyaSI, Parallelism: p})
		if rep.Outcome != want.Outcome {
			t.Fatalf("parallelism %d: outcome %v, want %v", p, rep.Outcome, want.Outcome)
		}
		if rep.KnownEdges != want.KnownEdges || rep.Constraints != want.Constraints {
			t.Fatalf("parallelism %d: graph stats (%d known, %d cons) vs (%d, %d)",
				p, rep.KnownEdges, rep.Constraints, want.KnownEdges, want.Constraints)
		}
	}
}

// checkRecordSizing fails unless one key's record was allocated at its
// final size: ops and read-dependency edges exactly, and every
// constraint side a capacity-capped view of the key's one slab, the
// views tiling the slab in emission order.
func checkRecordSizing(t *testing.T, rec *KeyRecord, label string) {
	t.Helper()
	if len(rec.Ops) != cap(rec.Ops) {
		t.Fatalf("%s: %d ops in capacity %d", label, len(rec.Ops), cap(rec.Ops))
	}
	if len(rec.WR) != cap(rec.WR) {
		t.Fatalf("%s: %d read-dependency edges in capacity %d", label, len(rec.WR), cap(rec.WR))
	}
	slab := rec.Sides[:cap(rec.Sides)]
	next := 0
	for j := range rec.Ops {
		for _, side := range [][]Edge{rec.Ops[j].First, rec.Ops[j].Second} {
			if side == nil {
				continue
			}
			if cap(side) != len(side) {
				t.Fatalf("%s: op %d side len %d cap %d, want capped", label, j, len(side), cap(side))
			}
			if next+len(side) > len(slab) || &slab[next] != &side[0] {
				t.Fatalf("%s: op %d side is not the next view of the key's slab", label, j)
			}
			next += len(side)
		}
	}
	if next != len(rec.Sides) {
		t.Fatalf("%s: views cover %d slab edges, slab holds %d", label, next, len(rec.Sides))
	}
}

// TestRecordSizing: over the matrix corpus (every graph-level anomaly in
// an SI carrier, histgen SI histories) plus SI histories with few and
// many keys, at AdyaSI and Serializability with combining and coalescing
// each on and off, the record pass sizes every key's record before
// emitting it, and each replay built on the records — assemble, Build at
// two workers, and ShardMerger.Finish — reproduces Build at one worker
// with capped sides.
func TestRecordSizing(t *testing.T) {
	corpus := matrixCorpus(t)
	for _, keys := range []int{2, 40} {
		spec := histgen.Spec{Txns: 80, Keys: keys, MaxConcurrency: 5, AbortEvery: 9, Seed: 3}
		corpus[fmt.Sprintf("si-gen/keys=%d", keys)] = histgen.SI(spec)
	}
	for name, h := range corpus {
		for _, level := range []Level{AdyaSI, Serializability} {
			for _, combine := range []bool{true, false} {
				for _, coalesce := range []bool{true, false} {
					opts := Options{Level: level, DisableCombineWrites: !combine, DisableCoalesce: !coalesce, Parallelism: 2}
					label := fmt.Sprintf("%s/%v/combine=%v/coalesce=%v", name, level, combine, coalesce)
					inc := NewIncremental(opts)
					inc.h = h
					inc.update()
					store := regenStore(inc)
					for key, rec := range store {
						checkRecordSizing(t, rec, label+"/"+string(key))
					}
					serialOpts := opts
					serialOpts.Parallelism = 1
					serial := Build(h, serialOpts)
					comparePolygraphs(t, serial, assembleStore(inc, store), label+"/assemble")
					comparePolygraphs(t, serial, Build(h, opts), label+"/build")
					comparePolygraphs(t, serial, mergeViaShards(t, h, opts, 3), label+"/merge")
				}
			}
		}
	}
}

// TestRecordKeyAllocs: recording a key allocates per key and per writer
// chain, not per constraint. The key has 40 blind writers (41 chains with
// genesis, 780 coalesced chain-pair constraints), each version read by
// two other transactions.
func TestRecordKeyAllocs(t *testing.T) {
	const writers = 40
	b := history.NewBuilder()
	for i := 0; i < writers; i++ {
		w := b.Session().Txn().Write("x").Commit()
		for r := 0; r < 2; r++ {
			b.Session().Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
		}
	}
	h := b.MustHistory()
	inc := sessionOver(h, Options{Level: AdyaSI})
	inc.update()
	pg := newPolygraph(h, AdyaSI)
	var rec *KeyRecord
	allocs := testing.AllocsPerRun(20, func() {
		rec, _ = inc.regenKey(pg, "x", true, true)
	})
	if pairs := writers * (writers - 1) / 2; len(rec.Ops) < pairs {
		t.Fatalf("recorded %d ops, want at least the %d chain pairs", len(rec.Ops), pairs)
	}
	if limit := 4.0 * writers; allocs > limit {
		t.Fatalf("recording one key with %d writer chains made %.0f allocations, want at most %.0f", writers, allocs, limit)
	}
	t.Logf("%.0f allocations for %d ops", allocs, len(rec.Ops))
}

// TestForEachKeyBoundsGoroutines: the pool never starts more goroutines
// than it has keys, whatever its worker count, and runs every index
// exactly once. A goroutine the pool starts counts as alive from its go
// statement until it finds no index left, so each callback samples the
// count from its entry until every callback has entered.
func TestForEachKeyBoundsGoroutines(t *testing.T) {
	const keys = 3
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	var entered atomic.Int32
	var runs [keys]atomic.Int32
	sample := func() {
		// The calling goroutine, counted in base, is one of the pool's.
		alive := int64(runtime.NumGoroutine() - base + 1)
		for p := peak.Load(); alive > p && !peak.CompareAndSwap(p, alive); p = peak.Load() {
		}
	}
	forEachKey(keys, 64, func(i int) {
		runs[i].Add(1)
		entered.Add(1)
		for sample(); entered.Load() < keys; sample() {
			runtime.Gosched()
		}
	})
	if p := peak.Load(); p > keys {
		t.Fatalf("%d pool goroutines alive over %d keys", p, keys)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("key %d ran %d times", i, n)
		}
	}
}

// cloneRecords deep-copies records by key.
func cloneRecords(recs map[history.Key]*KeyRecord) map[history.Key]*KeyRecord {
	out := make(map[history.Key]*KeyRecord, len(recs))
	for key, rec := range recs {
		c := &KeyRecord{WR: slices.Clone(rec.WR), Ops: slices.Clone(rec.Ops), Sides: slices.Clone(rec.Sides)}
		for j := range c.Ops {
			c.Ops[j].First = slices.Clone(c.Ops[j].First)
			c.Ops[j].Second = slices.Clone(c.Ops[j].Second)
		}
		out[key] = c
	}
	return out
}

// TestReplayLeavesRecordsIntact: records are shared (a cluster merge
// assembles them, and a warm session's constraints alias their sides),
// so an assembly must never write through a record. Key "a" makes
// C(w1)→B(w2) known (w2 read a from w1) before key "b"'s coalesced
// constraint "w1 before w2", whose first side [C(w1)→B(w2), B(r)→C(w2)]
// leads with that edge; the replay drops it from the constraint, and a
// second replay of the same records must see them unchanged and build
// the same polygraph.
func TestReplayLeavesRecordsIntact(t *testing.T) {
	b := history.NewBuilder()
	w1 := b.Session().Txn().Write("a").Write("b").Commit()
	b.Session().Txn().ReadObserved("a", w1.WriteIDOf("a")).Write("b").Commit()
	b.Session().Txn().ReadObserved("b", w1.WriteIDOf("b")).Commit()
	h := b.MustHistory()
	inc := sessionOver(h, Options{Level: GSI})
	inc.update()
	store := regenStore(inc)
	before := cloneRecords(store)

	first := assembleStore(inc, store)
	var recorded, replayed []Edge
	for _, op := range store["b"].Ops {
		if op.Cons {
			recorded = op.First
		}
	}
	for _, c := range first.Cons {
		if c.Key == "b" {
			replayed = c.First
		}
	}
	if len(recorded) != 2 || !reflect.DeepEqual(replayed, recorded[1:]) {
		t.Fatalf("constraint on b: first side recorded as %v, replayed as %v; want its known leading edge dropped", recorded, replayed)
	}
	comparePolygraphs(t, first, assembleStore(inc, store), "second replay")
	if !reflect.DeepEqual(store, before) {
		t.Fatal("replay mutated the records")
	}
}

// TestConstructTimingsPopulated checks the report's construction
// wall/CPU breakdown: both non-negative, and the worker count reported as
// resolved.
func TestConstructTimingsPopulated(t *testing.T) {
	h := figure2(t)
	rep := CheckHistory(h, Options{Level: AdyaSI, Parallelism: 4})
	if rep.ConstructWorkers != 4 || rep.Phases.Construct < 0 || rep.Phases.ConstructCPU < 0 {
		t.Fatalf("report timings: %+v workers=%d", rep.Phases, rep.ConstructWorkers)
	}
}

// TestPhaseTimingsWithinWall asserts the Figure 10 decomposition stays
// sane on a reject that needs real solving: every phase non-negative, and
// the phase sum bounded by the measured wall clock.
func TestPhaseTimingsWithinWall(t *testing.T) {
	h := longFork(t)
	start := time.Now()
	rep := CheckHistory(h, Options{
		Level: AdyaSI, DisableCombineWrites: true, DisablePruning: true,
	})
	elapsed := time.Since(start)
	if rep.Outcome != Reject {
		t.Fatalf("outcome %v", rep.Outcome)
	}
	ph := rep.Phases
	if ph.Construct < 0 || ph.ConstructCPU < 0 || ph.Encode < 0 || ph.Solve < 0 {
		t.Fatalf("negative phase timing: %+v", ph)
	}
	if sum := ph.Construct + ph.Encode + ph.Solve; sum > elapsed {
		t.Fatalf("phase sum %v exceeds wall clock %v", sum, elapsed)
	}
}
