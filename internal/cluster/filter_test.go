package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

func generated(t *testing.T, w workload.Generator, txns int, seed int64) *history.History {
	t.Helper()
	h, _, err := runner.Run(w, runner.Config{Clients: 8, Txns: txns, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sliceHistory is the reference slicer: it filters h to the shard keys
// h.Keys()[kr.lo:kr.hi] as a History — all transaction skeletons, only
// the ops touching shard keys (range ops when their window intersects
// the shard, results filtered). The returned history is validated;
// touches[t] reports whether transaction t kept any op. A decoded
// binary shard job must reproduce it exactly.
func sliceHistory(h *history.History, kr keyRange) (slice *history.History, touches []bool, err error) {
	keys := h.Keys()[kr.lo:kr.hi]
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("slice: empty key range")
	}
	inShard := func(k history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		return i < len(keys) && keys[i] == k
	}
	intersects := func(lo, hi history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
		return i < len(keys) && keys[i] <= hi
	}

	slice = history.New()
	touches = make([]bool, len(h.Txns))
	for _, t := range h.Txns[1:] {
		nt := &history.Txn{
			Session:      t.Session,
			SeqInSession: t.SeqInSession,
			BeginAt:      t.BeginAt,
			CommitAt:     t.CommitAt,
			Status:       t.Status,
		}
		for i := range t.Ops {
			op := t.Ops[i]
			switch op.Kind {
			case history.OpRange:
				if !intersects(op.Lo, op.Hi) {
					continue
				}
				var kept []history.Version
				for _, v := range op.Result {
					if inShard(v.Key) {
						kept = append(kept, v)
					}
				}
				op.Result = kept
			default:
				if !inShard(op.Key) {
					continue
				}
			}
			nt.Ops = append(nt.Ops, op)
		}
		touches[t.ID] = len(nt.Ops) > 0
		if id := slice.Append(nt); id != t.ID {
			return nil, nil, fmt.Errorf("slice: txn %d appended as %d", t.ID, id)
		}
	}
	if err := slice.Validate(); err != nil {
		return nil, nil, fmt.Errorf("slice failed validation (coordinator bug): %w", err)
	}
	return slice, touches, nil
}

func TestPartitionKeysCoversContiguously(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 150, Keys: 17, MaxConcurrency: 5, Seed: 3})
	for _, shards := range []int{1, 2, 3, 5, 16, 40} {
		ranges := partitionKeys(h, shards, 0)
		if len(ranges) == 0 || len(ranges) > shards {
			t.Fatalf("%d shards: got %d ranges", shards, len(ranges))
		}
		next := 0
		for _, kr := range ranges {
			if kr.lo != next || kr.hi <= kr.lo {
				t.Fatalf("%d shards: range %+v not contiguous from %d or empty", shards, kr, next)
			}
			next = kr.hi
		}
		if next != len(h.Keys()) {
			t.Fatalf("%d shards: ranges cover %d of %d keys", shards, next, len(h.Keys()))
		}
	}
}

// TestSliceRecordsEqualFull pins the property distributed checking
// stands on: recording a shard's keys against the key-sliced history a
// worker receives produces exactly the records a single node would
// compute for those keys against the full history — including
// workloads with range queries (whose absent-key genesis reads are
// derived per shard) and read-modify-write chains. The reference slice
// and the decoded binary shard job must put the same history in front
// of the worker, and the digest must round-trip the records
// bit-for-bit.
func TestSliceRecordsEqualFull(t *testing.T) {
	histories := map[string]*history.History{
		"histgen-si": histgen.SI(histgen.Spec{Txns: 200, Keys: 9, MaxConcurrency: 6, AbortEvery: 7, Seed: 5}),
		"blindw-rw":  generated(t, workload.NewBlindWRW(), 250, 11),
		"append-rmw": generated(t, workload.NewAppend(), 200, 13),
		"range-b":    generated(t, workload.NewRangeB(), 180, 17),
	}
	for name, h := range histories {
		for _, level := range []core.Level{core.AdyaSI, core.StrongSessionSI, core.Serializability} {
			opts := core.Options{Level: level, Parallelism: 1}
			full := core.BuildShardRecords(h, opts, h.Keys())
			for _, shards := range []int{2, 3, 5} {
				ranges := partitionKeys(h, shards, 0)
				for ri, kr := range ranges {
					slice, touches, err := sliceHistory(h, kr)
					if err != nil {
						t.Fatalf("%s/%v: slicing range %d: %v", name, level, ri, err)
					}
					keys := h.Keys()[kr.lo:kr.hi]
					if !reflect.DeepEqual(slice.Keys(), keys) {
						t.Fatalf("%s/%v: slice keys %v, want %v", name, level, slice.Keys(), keys)
					}
					if !reflect.DeepEqual(touches, touchesByRange(h, kr)) {
						t.Fatalf("%s/%v: touches vectors diverge for range %d", name, level, ri)
					}
					got := core.BuildShardRecords(slice, opts, slice.Keys())
					want := full[kr.lo:kr.hi]
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v shards=%d range=%d: slice records differ from full-history records",
							name, level, shards, ri)
					}

					// Binary job: decoding must reproduce the slice (options,
					// key table, every transaction) and therefore its records.
					var jobBuf bytes.Buffer
					if err := encodeShardJob(&jobBuf, h, kr, opts); err != nil {
						t.Fatalf("%s/%v range=%d: encoding shard job: %v", name, level, ri, err)
					}
					dopts, dh, dkeys, err := decodeShardJob(bufio.NewReader(&jobBuf))
					if err != nil {
						t.Fatalf("%s/%v range=%d: decoding shard job: %v", name, level, ri, err)
					}
					if dopts.Level != opts.Level || dopts.Parallelism != opts.Parallelism ||
						dopts.DisableCombineWrites != opts.DisableCombineWrites ||
						dopts.DisableCoalesce != opts.DisableCoalesce {
						t.Fatalf("%s/%v range=%d: options %+v decoded as %+v", name, level, ri, opts, dopts)
					}
					if !reflect.DeepEqual(dkeys, keys) || !reflect.DeepEqual(dh.Keys(), keys) {
						t.Fatalf("%s/%v range=%d: binary job key table diverges", name, level, ri)
					}
					for i := range slice.Txns[1:] {
						if !reflect.DeepEqual(slice.Txns[i+1], dh.Txns[i+1]) {
							t.Fatalf("%s/%v range=%d: txn %d differs through the binary job", name, level, ri, i+1)
						}
					}
					if gotBin := core.BuildShardRecords(dh, dopts, dh.Keys()); !reflect.DeepEqual(gotBin, want) {
						t.Fatalf("%s/%v range=%d: binary-job records differ from full-history records", name, level, ri)
					}

					// Binary digest: encode→decode must return the records
					// bit-for-bit, in streaming order.
					back := make([]*core.KeyRecord, len(keys))
					node, err := decodeDigest(bufio.NewReader(bytes.NewReader(encodeDigest("w1", got))), keys, core.NodeCount(h, level), func(i int, rec *core.KeyRecord) error {
						back[i] = rec
						return nil
					})
					if err != nil {
						t.Fatalf("%s/%v range=%d: decoding digest: %v", name, level, ri, err)
					}
					if node != "w1" {
						t.Fatalf("%s/%v range=%d: digest node %q", name, level, ri, node)
					}
					if !reflect.DeepEqual(back, want) {
						t.Fatalf("%s/%v range=%d: digest records differ after round trip", name, level, ri)
					}
				}
			}
		}
	}
}

// TestPartitionKeysFloor: the min-ops-per-shard floor caps the shard
// count for small histories so near-empty slices don't pay per-dispatch
// overhead, and a disabled floor restores one shard per worker.
func TestPartitionKeysFloor(t *testing.T) {
	h := generated(t, workload.NewBlindWRW(), 500, 3)
	total := 0
	for _, txn := range h.Txns[1:] {
		total += len(txn.Ops)
	}
	if floor := total/2 + 1; len(partitionKeys(h, 8, floor)) != 1 {
		t.Fatalf("floor %d over %d ops: want a single shard", floor, total)
	}
	if got := partitionKeys(h, 8, total/3); len(got) != 3 {
		t.Fatalf("floor %d over %d ops: got %d shards, want 3", total/3, total, len(got))
	}
	if got := partitionKeys(h, 8, 0); len(got) != 8 {
		t.Fatalf("no floor: got %d shards, want 8", len(got))
	}
	// The floored partition still covers the key space contiguously.
	next := 0
	for _, kr := range partitionKeys(h, 8, total/3) {
		if kr.lo != next || kr.hi <= kr.lo {
			t.Fatalf("range %+v not contiguous from %d", kr, next)
		}
		next = kr.hi
	}
	if next != len(h.Keys()) {
		t.Fatalf("floored ranges cover %d of %d keys", next, len(h.Keys()))
	}
}

// TestSliceKeepsSkeletons: every transaction survives slicing with its
// identity intact, even when none of its operations touch the shard.
func TestSliceKeepsSkeletons(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 80, Keys: 8, MaxConcurrency: 4, AbortEvery: 5, Seed: 1})
	ranges := partitionKeys(h, 4, 0)
	for _, kr := range ranges {
		slice, touches, err := sliceHistory(h, kr)
		if err != nil {
			t.Fatal(err)
		}
		if len(slice.Txns) != len(h.Txns) {
			t.Fatalf("slice has %d txns, want %d", len(slice.Txns), len(h.Txns))
		}
		sawEmpty := false
		for i, orig := range h.Txns[1:] {
			st := slice.Txns[i+1]
			if st.ID != orig.ID || st.Session != orig.Session || st.SeqInSession != orig.SeqInSession ||
				st.BeginAt != orig.BeginAt || st.CommitAt != orig.CommitAt || st.Status != orig.Status {
				t.Fatalf("txn %d skeleton changed in slice", orig.ID)
			}
			if len(st.Ops) == 0 {
				sawEmpty = true
				if touches[st.ID] {
					t.Fatalf("txn %d marked touching but has no ops", st.ID)
				}
			}
		}
		if !sawEmpty {
			t.Logf("range %+v: every txn touches the shard (histories this dense are fine, just noting)", kr)
		}
	}
}
