// Key-range partitioning: the coordinator's half of sharded
// single-history checking.
//
// A shard job ships a worker the smallest history that still lets it
// compute its keys' records exactly as a single node would: every
// transaction skeleton (ids, session, sequence, timestamps, status —
// so global node ids, session validation, and RMW chains line up), but
// only the operations touching the shard's keys. Range queries ride
// along when their window intersects the shard, with their results
// filtered to shard keys — the absent-key genesis derivation then sees
// exactly the shard's written keys (h.Keys() of the slice equals the
// shard key set), so each range-implied genesis read is derived on the
// one shard that owns its key. encodeShardJob (wire.go) filters the
// history that way as it encodes; per-key record equality between the
// decoded job and the full history is pinned by TestSliceRecordsEqualFull.
package cluster

import (
	"sort"

	"viper/internal/history"
)

// keyRange is a contiguous run of h.Keys(): indexes [lo, hi).
type keyRange struct {
	lo, hi int
}

func (kr keyRange) size() int { return kr.hi - kr.lo }

// partitionKeys splits h.Keys() into at most shards contiguous ranges,
// balanced by per-key operation count (a proxy for per-key construction
// cost, which is quadratic in writers in the worst case). Every
// returned range is non-empty.
//
// minOps floors the per-shard operation count (0 disables): a small
// history is cut into fewer shards than workers, because a near-empty
// slice costs a full dispatch round trip (HTTP, slice validation,
// digest framing) for almost no recording work — at 10k BlindW-RW
// transactions, 4-way sharding was measurably slower than 2-way.
func partitionKeys(h *history.History, shards int, minOps int) []keyRange {
	keys := h.Keys()
	if len(keys) == 0 || shards <= 0 {
		return nil
	}
	if shards > len(keys) {
		shards = len(keys)
	}
	weight := make(map[history.Key]int64, len(keys))
	var total int64
	for _, t := range h.Txns[1:] {
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case history.OpRange:
				for _, v := range op.Result {
					weight[v.Key]++
					total++
				}
			default:
				weight[op.Key]++
				total++
			}
		}
	}
	if minOps > 0 {
		maxShards := int(total / int64(minOps))
		if maxShards < 1 {
			maxShards = 1
		}
		if shards > maxShards {
			shards = maxShards
		}
	}
	out := make([]keyRange, 0, shards)
	target := total / int64(shards)
	lo, acc := 0, int64(0)
	for i, k := range keys {
		acc += weight[k]
		remainingShards := shards - len(out)
		remainingKeys := len(keys) - i - 1
		if (acc >= target || remainingKeys < remainingShards) && len(out) < shards-1 {
			out = append(out, keyRange{lo: lo, hi: i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(keys) {
		out = append(out, keyRange{lo: lo, hi: len(keys)})
	}
	return out
}

// spansByRange reports, per transaction, whether it operates on a
// committed-written key outside the shard [kr.lo, kr.hi) — the
// transactions whose polygraph nodes couple this shard's emissions to
// other shards' when the digests merge. Keys never committed-written
// (genesis-only range reads) belong to no shard and do not count.
func spansByRange(h *history.History, kr keyRange) []bool {
	all := h.Keys()
	outside := func(k history.Key) bool {
		i := sort.Search(len(all), func(i int) bool { return all[i] >= k })
		return i < len(all) && all[i] == k && (i < kr.lo || i >= kr.hi)
	}
	intersectsOutside := func(lo, hi history.Key) bool {
		i := sort.Search(len(all), func(i int) bool { return all[i] >= lo })
		for ; i < len(all) && all[i] <= hi; i++ {
			if i < kr.lo || i >= kr.hi {
				return true
			}
		}
		return false
	}
	spans := make([]bool, len(h.Txns))
	for _, t := range h.Txns[1:] {
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind == history.OpRange {
				if intersectsOutside(op.Lo, op.Hi) {
					spans[t.ID] = true
					break
				}
				continue
			}
			if outside(op.Key) {
				spans[t.ID] = true
				break
			}
		}
	}
	return spans
}

// touchesByRange reports, per transaction, whether it keeps any
// operation in the shard's slice (for the report's per-shard counts).
func touchesByRange(h *history.History, kr keyRange) []bool {
	keys := h.Keys()[kr.lo:kr.hi]
	inShard := func(k history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		return i < len(keys) && keys[i] == k
	}
	intersects := func(lo, hi history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
		return i < len(keys) && keys[i] <= hi
	}
	touches := make([]bool, len(h.Txns))
	for _, t := range h.Txns[1:] {
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind == history.OpRange {
				if intersects(op.Lo, op.Hi) {
					touches[t.ID] = true
					break
				}
				continue
			}
			if inShard(op.Key) {
				touches[t.ID] = true
				break
			}
		}
	}
	return touches
}
