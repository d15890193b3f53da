// Checkpointing: compacting the checked prefix of an accepting session
// into a certificate (history.Fence) and dropping everything the prefix
// pinned — transactions, per-key records, solver clauses, closure rows,
// and the timestamp order. The fence generalizes the genesis transaction:
// it asserts that the prefix was validated, audited, and accepted, and
// that every fenced transaction is ordered before every live one. Live
// reads of a key's final pre-fence version become genesis reads of the
// compacted history, which the existing constraint generation already
// orders before every live writer chain (the genesis chain precedes all
// other chains), so no solver-side machinery changes at all.
//
// Soundness (accept): if the compacted history is accepted with witness
// ŝ_live, the full history is accepted by the concatenation ŝ_fence ++
// ŝ_live, where ŝ_fence is the accepting witness of the checkpoint-time
// audit restricted to the fenced transactions. Fenced reads resolve within
// the prefix (relative order is preserved, and a version interloper in the
// restriction would have been one in the original); live reads observe
// either live writes (ŝ_live validates them, and fenced writers all sort
// earlier) or final pre-fence versions (the certificate seeds them, and
// ŝ_live puts every live writer of the key after the reader — that is
// exactly the genesis-reader constraint). The fence-clean shrink below
// makes the converse hold too on checkpoint-time transactions: the
// checkpoint-time witness restricted to the kept window remains a valid
// witness of the compacted history, so compaction alone never flips an
// accepting session to rejecting.
//
// Completeness is conditional for transactions appended later: a new read
// that observes a superseded pre-fence version (or claims a fenced-written
// key is absent) cannot be ordered after the fence and is rejected as
// ErrStaleFencedRead — a dedicated class, so a fence-straddling verdict is
// auditable rather than silently diverging. A kept window that covers
// the longest transaction does not prevent this on real executions: the
// fence freezes the accepting witness's order of each key's writers,
// and a witness may order blind writes against their commit order. In
// one measured stream (perfbench's BlindW-RW generator, 2,000 keys, 24
// clients, seed 1, stamps zeroed; a Checker at AdyaSI auditing every 200
// transactions, checkpointing every 4,000 and keeping 500), transaction
// 7619 read write 25903 of key "k001835" — the last of three blind
// writes that had all committed before it began — and was rejected as a
// stale fenced read, because the fenced witness had ordered another
// write of that key last.
package core

import (
	"errors"
	"fmt"

	"viper/internal/history"
)

// Certificate summarizes the checkpoint certificate a compacted session
// carries — the operator-facing view of what was fenced.
type Certificate struct {
	// Checkpoints counts completed checkpoints.
	Checkpoints int
	// FencedTxns/FencedCommitted/FencedOps count what was compacted away,
	// cumulatively.
	FencedTxns      int
	FencedCommitted int
	FencedOps       int64
	// Keys is the number of keys with a surviving latest-version summary;
	// WriteIDs the number of classified pre-fence write ids.
	Keys     int
	WriteIDs int
	// TxnIDBase is the external-id offset of the live window.
	TxnIDBase int64
	// Bytes estimates the certificate's in-memory footprint.
	Bytes int64
}

// Certificate returns the session's current checkpoint certificate
// summary (zero value before the first checkpoint).
func (inc *Incremental) Certificate() Certificate {
	f := inc.h.Fence()
	if f == nil {
		return Certificate{}
	}
	return Certificate{
		Checkpoints:     f.Checkpoints,
		FencedTxns:      f.Txns,
		FencedCommitted: f.Committed,
		FencedOps:       f.Ops,
		Keys:            len(f.Latest),
		WriteIDs:        len(f.Writes),
		TxnIDBase:       f.Base,
		Bytes:           f.Bytes(),
	}
}

// Checkpoint compacts the session's checked prefix, keeping (at least) the
// requested number of most recent transactions live. It requires the last
// audit to have accepted the current history — the certificate freezes
// that audit's witness order — and returns the number of transactions
// compacted (zero, without error, when the window is already within the
// target or the fence-clean adjustment leaves nothing to fence).
//
// The prefix boundary may move earlier than len-keep: the shrink pass
// guarantees the fence is clean with respect to every kept transaction
// (no kept read observes a superseded pre-fence version or a pre-fence
// absence, no fenced transaction observes a live write, sessions split at
// their sequence boundary, and no kept writer is ordered before a fenced
// latest version by the accepting witness). Cleanliness is what makes the
// kept window re-accept with verdicts identical to the unbounded session.
func (inc *Incremental) Checkpoint(keep int) (int, error) {
	if inc.opts.Level != AdyaSI && inc.opts.Level != Serializability {
		return 0, fmt.Errorf("checkpoint: level %v carries real-time obligations that cannot be fenced; supported levels are adya-si and serializability", inc.opts.Level)
	}
	if inc.rejected != nil {
		return 0, errors.New("checkpoint: session already rejected; there is no accepting prefix to certify")
	}
	if inc.lastAccept == nil || inc.lastAccept.WitnessPositions == nil {
		return 0, errors.New("checkpoint: requires an accepting audit of the current history")
	}
	if inc.indexed != len(inc.h.Txns) {
		return 0, errors.New("checkpoint: transactions appended since the last audit")
	}
	if keep < 0 {
		keep = 0
	}

	h := inc.h
	n := len(h.Txns)
	F := n - keep
	if F <= 1 {
		return 0, nil
	}
	F = inc.shrinkFence(F)
	if F <= 1 {
		return 0, nil
	}

	fence := inc.buildFence(F)

	// Rebuild the live window as a fresh history over the certificate. The
	// kept transactions are re-appended, which remaps their internal ids to
	// 1..keep; the fence's Base keeps external ids stable.
	nh := history.New()
	nh.SetFence(fence)
	var liveOps int64
	for _, t := range h.Txns[F:] {
		nh.Append(t)
		liveOps += int64(len(t.Ops))
	}
	if err := nh.Validate(); err != nil {
		// The shrink pass guarantees a clean window; failing here would be
		// a checkpointing bug, and the session must not be corrupted by it.
		return 0, fmt.Errorf("checkpoint: compacted window failed validation (checkpoint bug): %w", err)
	}

	// Swap the history in and drop every derived structure: indexes and
	// records are rebuilt over the small window by the next audit's update
	// and regen passes, and the warm solver re-encodes from those records.
	inc.h = nh
	inc.indexed = 1
	inc.g1bHigh = 1
	inc.readers = make(map[history.Key]map[history.TxnID][]history.TxnID)
	inc.writers = make(map[history.Key][]history.TxnID)
	inc.knownKeys = make(map[history.Key]bool)
	inc.ranges = nil
	inc.dirty = make(map[history.Key]bool)
	inc.records = make(map[history.Key]*KeyRecord)
	inc.chainSigs = make(map[history.Key][][]history.TxnID)
	inc.pendingWarm = make(map[history.Key]bool)
	inc.partitionChanged = false
	inc.warm = nil
	inc.liveOps = liveOps
	inc.lastAccept = nil
	return F - 1, nil
}

// commitPos reads a transaction's commit position from the last accepting
// witness (its single node position under the Serializability mapping).
func (inc *Incremental) commitPos(t history.TxnID) int32 {
	pos := inc.lastAccept.WitnessPositions
	if inc.ser() {
		return pos[int(t)]
	}
	return pos[2*int(t)+1]
}

// shrinkFence lowers the candidate fence boundary until the split is
// clean: every fenced transaction is self-contained within the prefix and
// every kept transaction's observations survive the prefix's removal.
// Each violation names the transaction that must become live (or the
// fenced writer whose exclusion repairs the kept observation); the loop
// re-checks because lowering the boundary makes more transactions live,
// whose own observations then need checking. It terminates: the boundary
// strictly decreases and never passes 1.
func (inc *Incremental) shrinkFence(F int) int {
	h := inc.h
	lastWrites := make(map[history.TxnID]map[history.Key]int)
	lastOf := func(t history.TxnID) map[history.Key]int {
		m, ok := lastWrites[t]
		if !ok {
			m = h.Txns[t].LastWritePerKey()
			lastWrites[t] = m
		}
		return m
	}

	for F > 1 {
		newF := F
		lower := func(idx history.TxnID) {
			if int(idx) < newF {
				newF = int(idx)
			}
		}

		// Latest committed pre-fence writer per key (by witness commit
		// position) and the earliest pre-fence writer per key (the txn to
		// un-fence when a kept observation needs the key unfenced entirely).
		latest := make(map[history.Key]history.TxnID)
		earliest := make(map[history.Key]history.TxnID)
		for key, ws := range inc.writers {
			for _, w := range ws {
				if int(w) >= F {
					break // writer lists are in ascending id order
				}
				if _, ok := earliest[key]; !ok {
					earliest[key] = w
				}
				if cur, ok := latest[key]; !ok || inc.commitPos(w) > inc.commitPos(cur) {
					latest[key] = w
				}
			}
		}
		// unfence repairs a kept observation of writer j's version of key:
		// every pre-fence writer of the key the witness orders after j must
		// become live, so j's version is the key's final pre-fence state.
		unfence := func(key history.Key, j history.TxnID) {
			jp := inc.commitPos(j)
			for _, w := range inc.writers[key] {
				if int(w) >= F {
					break
				}
				if inc.commitPos(w) > jp {
					lower(w)
				}
			}
		}
		// genesisObs repairs a kept observation of the key's initial (or
		// previous-fence) version: no pre-fence writer of the key may remain.
		genesisObs := func(key history.Key) {
			if w, ok := earliest[key]; ok {
				lower(w)
			}
		}
		checkObs := func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // not a committed write: validated histories never observe these
			}
			if ref.Txn == history.GenesisID {
				genesisObs(key)
				return
			}
			j := ref.Txn
			if int(j) >= F {
				return // live writer: unaffected by the fence
			}
			if lastOf(j)[key] != ref.Op {
				// An intermediate write: only a transaction's final version
				// of a key survives as FencedLatest, so the writer itself
				// must stay live.
				lower(j)
				return
			}
			if latest[key] != j {
				unfence(key, j)
			}
		}

		for _, t := range h.Txns[1:] {
			if int(t.ID) >= F {
				// Kept transaction (committed or aborted — validation checks
				// both): its reads must resolve against the certificate.
				t.ExternalReads(checkObs)
				for i := range t.Ops {
					op := &t.Ops[i]
					if op.Kind != history.OpRange {
						continue
					}
					returned := make(map[history.Key]bool, len(op.Result))
					for _, v := range op.Result {
						returned[v.Key] = true
					}
					// Silence about a pre-fence-written key in bounds claims
					// the key's initial version.
					for _, k := range h.KeysInRange(op.Lo, op.Hi) {
						if returned[k] {
							continue
						}
						if _, fenced := earliest[k]; fenced {
							genesisObs(k)
						}
					}
				}
				// A kept writer the witness orders before a key's fenced
				// latest version contradicts fence-before-live; un-fence the
				// later pre-fence writers instead.
				if t.Committed() {
					tp := inc.commitPos(t.ID)
					for key := range lastOf(t.ID) {
						if L, ok := latest[key]; ok && tp < inc.commitPos(L) {
							unfence(key, t.ID)
						}
					}
				}
			} else if t.Committed() {
				// Fenced transaction: it must be self-contained — observing a
				// live write would order a live transaction before the fence.
				t.ExternalReads(func(key history.Key, obs history.WriteID) {
					if ref, ok := h.WriterOf(obs); ok && int(ref.Txn) >= F {
						lower(t.ID)
					}
				})
			}
		}

		// Sessions split at their sequence boundary: a fenced transaction
		// sequenced after a kept one of the same session would leave the
		// kept window's sequence numbers non-contiguous.
		for _, txns := range h.Sessions {
			minKept := int32(-1)
			for _, id := range txns {
				if int(id) >= F && (minKept < 0 || h.Txns[id].SeqInSession < minKept) {
					minKept = h.Txns[id].SeqInSession
				}
			}
			if minKept < 0 {
				continue
			}
			for _, id := range txns {
				if int(id) < F && h.Txns[id].SeqInSession >= minKept {
					lower(id)
				}
			}
		}

		if newF == F {
			return F
		}
		F = newF
	}
	return F
}

// buildFence assembles the certificate for fencing h.Txns[1:F], merged
// with (and copied from — fences are immutable once installed) the
// previous certificate.
func (inc *Incremental) buildFence(F int) *history.Fence {
	h := inc.h
	prev := h.Fence()
	f := &history.Fence{
		Base:        int64(F - 1),
		Checkpoints: 1,
		Writes:      make(map[history.WriteID]history.FencedWrite),
		Latest:      make(map[history.Key]history.WriteID),
	}
	if prev != nil {
		f.Base += prev.Base
		f.Checkpoints += prev.Checkpoints
		f.Txns = prev.Txns
		f.Committed = prev.Committed
		f.Ops = prev.Ops
		for w, fw := range prev.Writes {
			f.Writes[w] = fw
		}
		for k, w := range prev.Latest {
			f.Latest[k] = w
		}
		f.SessBase = append(f.SessBase, prev.SessBase...)
	}

	// The newly fenced latest version per key, by witness commit position.
	latest := make(map[history.Key]history.TxnID)
	for key, ws := range inc.writers {
		for _, w := range ws {
			if int(w) >= F {
				break
			}
			if cur, ok := latest[key]; !ok || inc.commitPos(w) > inc.commitPos(cur) {
				latest[key] = w
			}
		}
	}
	latestWID := make(map[history.Key]history.WriteID, len(latest))
	for key, j := range latest {
		t := h.Txns[j]
		latestWID[key] = t.Ops[t.LastWritePerKey()[key]].WriteID
	}
	// A key re-written behind the new fence supersedes its previous
	// latest: the old entry flips to stale.
	for key, wid := range latestWID {
		if pw, ok := f.Latest[key]; ok && pw != wid {
			fw := f.Writes[pw]
			fw.State = history.FencedStale
			f.Writes[pw] = fw
		}
		f.Latest[key] = wid
	}

	for _, t := range h.Txns[1:F] {
		f.Txns++
		f.Ops += int64(len(t.Ops))
		if t.Committed() {
			f.Committed++
		}
		for int(t.Session) >= len(f.SessBase) {
			f.SessBase = append(f.SessBase, 0)
		}
		f.SessBase[t.Session]++
		t.Writes(func(op *history.Op) {
			fw := history.FencedWrite{Key: op.Key, Tombstone: op.Kind == history.OpDelete}
			switch {
			case !t.Committed():
				fw.State = history.FencedAborted
			case latestWID[op.Key] == op.WriteID:
				fw.State = history.FencedLatest
			default:
				fw.State = history.FencedStale
			}
			f.Writes[op.WriteID] = fw
		})
	}
	f.FreezeKeys()
	return f
}
