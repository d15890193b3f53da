package history

import "sort"

// FencedWriteState classifies a write id that lives behind a fence (see
// Fence). The classification is what lets validation resolve live reads of
// pre-fence values without keeping the fenced transactions around.
type FencedWriteState uint8

const (
	// FencedStale marks a committed pre-fence write that was superseded by
	// a later pre-fence write of the same key. A live read observing it
	// contradicts the fence (the checked prefix already installed a newer
	// version), so validation rejects with ErrStaleFencedRead.
	FencedStale FencedWriteState = iota
	// FencedLatest marks the final committed pre-fence version of a key.
	// A live read observing it is equivalent to reading the key's initial
	// version in the compacted history, so it resolves to genesis.
	FencedLatest
	// FencedAborted marks a write by an aborted pre-fence transaction.
	// Observing it is Adya's G1a exactly as in the unbounded history.
	FencedAborted
)

// FencedWrite is the certificate entry for one pre-fence write id.
type FencedWrite struct {
	Key       Key
	State     FencedWriteState
	Tombstone bool // the write was a delete (tombstone version)
}

// Fence is the checkpoint certificate a compacted history carries in place
// of its checked prefix. Conceptually the fence generalizes the genesis
// transaction: it asserts that some prefix of the execution was validated,
// audited, and accepted, and that every transaction in that prefix is
// ordered before every live transaction. The certificate records just
// enough of the prefix to (a) resolve live reads that observe pre-fence
// values, (b) keep external transaction ids and session sequence numbers
// stable, and (c) let an operator audit what was dropped.
//
// A Fence is immutable once installed: checkpoints build a fresh Fence
// (copying the previous one) rather than mutating in place, so history
// snapshots taken before a checkpoint stay valid concurrently.
type Fence struct {
	// Base is the external-id offset: live transaction with internal id t
	// (t >= 1) has external id Base + t. Genesis remains 0.
	Base int64
	// Checkpoints counts how many checkpoints produced this fence.
	Checkpoints int
	// Txns, Committed, and Ops count the fenced transactions (excluding
	// genesis), cumulatively across all checkpoints.
	Txns, Committed int
	// Ops counts operations carried by fenced transactions.
	Ops int64
	// Writes classifies every write id produced behind the fence.
	Writes map[WriteID]FencedWrite
	// Latest maps each fenced-written key to its final committed pre-fence
	// write id — the version a live transaction with a pre-fence snapshot
	// legitimately observes. In the compacted history these observations
	// resolve to genesis: the fence *is* the generalized genesis write.
	Latest map[Key]WriteID
	// SessBase gives, per session id, how many of that session's
	// transactions are behind the fence; live SeqInSession values of
	// session s start at SessBase[s].
	SessBase []int32

	keys  []Key // sorted keys with a committed fenced write (= Latest keys)
	bytes int64 // Bytes' estimate, computed with keys
}

// FreezeKeys (re)builds the sorted key index from Latest and the
// footprint estimate Bytes reports, both of which the fence's
// immutability lets every later reader share. Checkpoint calls it once
// after assembling the maps; histories decoded without it see an empty
// key index and must not carry a fence.
func (f *Fence) FreezeKeys() {
	f.keys = make([]Key, 0, len(f.Latest))
	for k := range f.Latest {
		f.keys = append(f.keys, k)
	}
	sort.Slice(f.keys, func(a, b int) bool { return f.keys[a] < f.keys[b] })
	f.bytes = int64(len(f.SessBase))*4 + 96
	for _, fw := range f.Writes {
		f.bytes += fencedWriteBytes + int64(len(fw.Key))
	}
	for _, k := range f.keys {
		f.bytes += fencedKeyBytes + 2*int64(len(k))
	}
}

// Written reports whether the key was written (and committed) behind the
// fence, i.e. whether its initial version in the compacted history is
// really a pre-fence version rather than "absent".
func (f *Fence) Written(k Key) bool {
	i := sort.Search(len(f.keys), func(i int) bool { return f.keys[i] >= k })
	return i < len(f.keys) && f.keys[i] == k
}

// KeysInRange returns the fenced-written keys k with lo <= k <= hi. The
// slice aliases the fence's index; callers must not modify it.
func (f *Fence) KeysInRange(lo, hi Key) []Key {
	i := sort.Search(len(f.keys), func(i int) bool { return f.keys[i] >= lo })
	j := sort.Search(len(f.keys), func(i int) bool { return f.keys[i] > hi })
	if i >= j {
		return nil
	}
	return f.keys[i:j]
}

// ExternalID translates a live internal transaction id to the stable
// external id clients know it by.
func (f *Fence) ExternalID(t TxnID) TxnID {
	if f == nil || t <= GenesisID {
		return t
	}
	return TxnID(f.Base + int64(t))
}

// fencedWriteBytes and fencedKeyBytes are the accounting constants for
// Bytes(): map entry overhead plus the struct payloads.
const (
	fencedWriteBytes = 48
	fencedKeyBytes   = 64
)

// Bytes estimates the certificate's in-memory footprint, as FreezeKeys
// computed it. The dictionary dominates: the fence is O(total fenced
// write ids), the deliberate trade-off that buys O(window)
// everything-else (see DESIGN.md).
func (f *Fence) Bytes() int64 {
	if f == nil {
		return 0
	}
	return f.bytes
}
