package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

// splitKeys cuts keys into n contiguous chunks (some possibly empty).
func splitKeys(keys []history.Key, n int) [][]history.Key {
	out := make([][]history.Key, 0, n)
	per := (len(keys) + n - 1) / n
	if per == 0 {
		per = 1
	}
	for lo := 0; lo < len(keys); lo += per {
		hi := lo + per
		if hi > len(keys) {
			hi = len(keys)
		}
		out = append(out, keys[lo:hi])
	}
	return out
}

// mergerViaShards records each key chunk independently (as cluster
// workers would) and adds the records to a ShardMerger in key order.
func mergerViaShards(t *testing.T, h *history.History, opts Options, shards int) *ShardMerger {
	t.Helper()
	m := NewShardMerger(h, opts)
	i := 0
	for _, chunk := range splitKeys(h.Keys(), shards) {
		for _, rec := range BuildShardRecords(h, opts, chunk) {
			if err := m.Add(i, rec); err != nil {
				t.Fatalf("merge (%d shards): %v", shards, err)
			}
			i++
		}
	}
	return m
}

// mergeViaShards replays mergerViaShards' records into a polygraph.
func mergeViaShards(t *testing.T, h *history.History, opts Options, shards int) *Polygraph {
	t.Helper()
	pg, err := mergerViaShards(t, h, opts, shards).Finish()
	if err != nil {
		t.Fatalf("merge (%d shards): %v", shards, err)
	}
	return pg
}

// TestShardRecordsMergeIdenticalToBuild is the distributed counterpart
// of TestShardedBuildIdenticalToSerial: recording each key range
// separately (with varying intra-shard parallelism) and replaying the
// concatenated records must reproduce Build at one worker byte for byte,
// for every level, optimization combination, and shard count.
func TestShardRecordsMergeIdenticalToBuild(t *testing.T) {
	histories := map[string]*history.History{
		"figure2":     figure2(t),
		"long-fork":   longFork(t),
		"lost-update": lostUpdate(t),
		"write-skew":  writeSkew(t),
		"read-skew":   readSkew(t),
	}
	rng := rand.New(rand.NewSource(43))
	histories["random-serial"] = randomSerialHistory(rng, 40+rng.Intn(40), 6, 3)
	levels := []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability}
	for name, h := range histories {
		for _, level := range levels {
			for _, combo := range []Options{
				{Level: level},
				{Level: level, DisableCombineWrites: true},
				{Level: level, DisableCoalesce: true},
			} {
				serialOpts := combo
				serialOpts.Parallelism = 1
				serial := Build(h, serialOpts)
				for _, shards := range []int{1, 2, 3, 7} {
					recOpts := combo
					recOpts.Parallelism = 1 + shards%3
					comparePolygraphs(t, serial, mergeViaShards(t, h, recOpts, shards), name+"/"+level.String())
				}
			}
		}
	}
}

// TestShardRecordsOnGeneratedWorkload runs the record/merge differential
// on a constraint-heavy generated workload and checks the end-to-end
// verdict through CheckMergedContext.
func TestShardRecordsOnGeneratedWorkload(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 16, Txns: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{AdyaSI, StrongSessionSI, Serializability} {
		opts := Options{Level: level, Parallelism: 1}
		serial := Build(h, opts)
		for _, shards := range []int{2, 4} {
			comparePolygraphs(t, serial, mergeViaShards(t, h, opts, shards), "blindw-rw/"+level.String())
		}
		want := CheckHistory(h, opts)
		rep, err := CheckMergedContext(context.Background(), mergerViaShards(t, h, opts, 3))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome != want.Outcome || rep.Anomaly != want.Anomaly {
			t.Fatalf("%v: sharded verdict %v/%q, want %v/%q",
				level, rep.Outcome, rep.Anomaly, want.Outcome, want.Anomaly)
		}
		if rep.KnownEdges != want.KnownEdges || rep.Constraints != want.Constraints {
			t.Fatalf("%v: graph stats (%d known, %d cons) vs (%d, %d)",
				level, rep.KnownEdges, rep.Constraints, want.KnownEdges, want.Constraints)
		}
	}
}

// TestShardMergerIncremental drives the streaming merge exactly as the
// coordinator does — records arriving out of index order, some
// duplicated by retries — and demands Build at one worker byte for byte.
func TestShardMergerIncremental(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 8, Txns: 250, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, level := range []Level{AdyaSI, StrongSessionSI, Serializability} {
		opts := Options{Level: level, Parallelism: 1}
		serial := Build(h, opts)
		recs := BuildShardRecords(h, opts, h.Keys())

		m := NewShardMerger(h, opts)
		order := rng.Perm(len(recs))
		for n, i := range order {
			if err := m.Add(i, recs[i]); err != nil {
				t.Fatalf("%v: Add(%d): %v", level, i, err)
			}
			if n%3 == 0 { // a retried shard re-delivers an identical record
				if err := m.Add(i, recs[i]); err != nil {
					t.Fatalf("%v: duplicate Add(%d): %v", level, i, err)
				}
			}
		}
		pg, err := m.Finish()
		if err != nil {
			t.Fatalf("%v: Finish: %v", level, err)
		}
		comparePolygraphs(t, serial, pg, "merger/"+level.String())
	}
}

// TestShardMergerRejectsBadRecords: wrong indexes are loud errors;
// finishing with gaps is too.
func TestShardMergerRejectsBadRecords(t *testing.T) {
	h := writeSkew(t)
	opts := Options{Level: AdyaSI}
	recs := BuildShardRecords(h, opts, h.Keys())

	m := NewShardMerger(h, opts)
	if err := m.Add(len(recs), recs[0]); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := m.Add(0, recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(); err == nil {
		t.Fatal("Finish with missing records succeeded")
	}
}

// TestBuildShardRecordsOrderedStreams: the ordered emitter hands out
// every record exactly once, in key order, identical to the batch
// builder, for several parallelism settings; an emit error stops the
// emitter and is returned.
func TestBuildShardRecordsOrderedStreams(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 8, Txns: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Level: AdyaSI}
	want := BuildShardRecords(h, opts, h.Keys())
	for _, par := range []int{1, 2, 8} {
		p := opts
		p.Parallelism = par
		next := 0
		err := BuildShardRecordsOrdered(h, p, h.Keys(), func(i int, rec *KeyRecord) error {
			if i != next {
				t.Fatalf("par=%d: emitted record %d, want %d", par, i, next)
			}
			next++
			if !reflect.DeepEqual(rec, want[i]) {
				t.Fatalf("par=%d: record %d differs from the batch record", par, i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != len(want) {
			t.Fatalf("par=%d: emitted %d records, want %d", par, next, len(want))
		}

		stop := errors.New("stop")
		calls := 0
		err = BuildShardRecordsOrdered(h, p, h.Keys(), func(i int, rec *KeyRecord) error {
			calls++
			if i == 2 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || calls != 3 {
			t.Fatalf("par=%d: emit error at record 2 gave %v after %d calls, want it back after 3", par, err, calls)
		}
	}
}
