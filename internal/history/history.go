// Package history models the transaction histories that viper checks.
//
// A history is the black-box view of a database execution: the set of
// operations clients issued, wrapped in transactions, together with the
// values the database returned. Values are identified by unique write ids
// (assigned by the history collectors, package collector), so a read can be
// resolved to the transaction that produced the value it observed.
//
// Histories contain a synthetic genesis transaction (ID 0) that conceptually
// installs the initial version of every key and commits before anything
// else; a read that observed no write (the key was absent or held its
// initial value) is modelled as reading from genesis.
package history

import (
	"fmt"
	"sort"
)

// TxnID identifies a transaction within a History. It is the index of the
// transaction in History.Txns. GenesisID is always present.
type TxnID int32

// GenesisID is the id of the virtual genesis transaction, which commits
// before every other transaction and is the writer of every key's initial
// (absent) version.
const GenesisID TxnID = 0

// WriteID uniquely identifies a written value. History collectors tag every
// value written to the database with a fresh WriteID so that reads can be
// matched to writes. GenesisWriteID (zero) denotes the initial version of a
// key: a read observing it saw the key as absent / never written.
type WriteID int64

// GenesisWriteID is the WriteID observed by reads of keys that no
// transaction had written yet.
const GenesisWriteID WriteID = 0

// Key is a database key. Range queries use the natural byte-wise ordering
// of keys, so workloads with numeric keys should zero-pad them.
type Key string

// OpKind enumerates the operation kinds that refer to keys. The remaining
// operations of the paper's interface (begin, commit, abort) are properties
// of the enclosing transaction, not ops.
type OpKind uint8

const (
	// OpRead observes the current version of a key.
	OpRead OpKind = iota
	// OpWrite installs a new version of a key.
	OpWrite
	// OpInsert installs a new version of a previously absent (or deleted)
	// key. At the checker level an insert is a write; the distinction is
	// kept for diagnostics and for collector-side tombstone bookkeeping.
	OpInsert
	// OpDelete removes a key. Collectors implement deletes as writes of a
	// tombstone value (§4 of the paper), so a delete carries a WriteID just
	// like a write.
	OpDelete
	// OpRange is a key-based range query over [Lo, Hi] (inclusive). Its
	// Result lists every key the database returned in that range together
	// with the write id of the observed version, including tombstoned keys.
	OpRange
)

// String returns the mnemonic used in logs ("r", "w", "i", "d", "q").
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	case OpInsert:
		return "i"
	case OpDelete:
		return "d"
	case OpRange:
		return "q"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Version is one (key, write id) pair returned by a range query.
type Version struct {
	Key       Key
	WriteID   WriteID
	Tombstone bool // the observed version is a tombstone (deleted key)
}

// Op is a single key operation inside a transaction. Which fields are
// meaningful depends on Kind:
//
//   - OpRead: Key, Observed (and ObservedTombstone).
//   - OpWrite / OpInsert: Key, WriteID.
//   - OpDelete: Key, WriteID (the tombstone's write id).
//   - OpRange: Lo, Hi, Result.
type Op struct {
	Kind OpKind
	Key  Key

	// WriteID is the unique id of the value installed by a write, insert,
	// or delete (tombstone).
	WriteID WriteID

	// Observed is the write id a read saw. GenesisWriteID means the key was
	// absent (initial version).
	Observed WriteID

	// ObservedTombstone records that a read observed a tombstone, i.e. the
	// key existed physically but was logically deleted.
	ObservedTombstone bool

	// Lo and Hi bound a range query (inclusive on both ends).
	Lo, Hi Key

	// Result is a range query's returned versions.
	Result []Version
}

// Status is the outcome of a transaction.
type Status uint8

const (
	// StatusCommitted marks a transaction whose commit succeeded.
	StatusCommitted Status = iota
	// StatusAborted marks a transaction that aborted (voluntarily or by the
	// database, e.g. first-committer-wins validation failure).
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	if s == StatusCommitted {
		return "committed"
	}
	return "aborted"
}

// Txn is one transaction as observed by a client.
type Txn struct {
	// ID is the transaction's index in History.Txns.
	ID TxnID
	// Session identifies the client connection (JDBC-connection granularity
	// in the paper) that issued the transaction. Sessions are synchronous:
	// a client commits or aborts one transaction before beginning the next.
	Session int32
	// SeqInSession is the 0-based position of this transaction within its
	// session's issue order.
	SeqInSession int32
	// BeginAt and CommitAt are client-local wall-clock timestamps (Unix
	// nanoseconds) recorded by the history collector at begin and at
	// commit/abort. They are only consulted when checking real-time SI
	// variants (GSI, Strong SI) and are interpreted under a bounded
	// clock-drift assumption.
	BeginAt, CommitAt int64
	// Status records whether the transaction committed.
	Status Status
	// Ops are the key operations, in program order.
	Ops []Op
}

// Committed reports whether the transaction committed.
func (t *Txn) Committed() bool { return t.Status == StatusCommitted }

// IsGenesis reports whether this is the virtual genesis transaction.
func (t *Txn) IsGenesis() bool { return t.ID == GenesisID }

// Writes calls fn for every op that installs a version (write, insert,
// delete-as-tombstone), in program order.
func (t *Txn) Writes(fn func(op *Op)) {
	for i := range t.Ops {
		switch t.Ops[i].Kind {
		case OpWrite, OpInsert, OpDelete:
			fn(&t.Ops[i])
		}
	}
}

// WriterRef locates the op that produced a write id.
type WriterRef struct {
	Txn TxnID
	Op  int // index into Txns[Txn].Ops
}

// History is a complete observed execution: every transaction every client
// issued, with return values resolved to write ids.
//
// Txns[0] is always the genesis transaction. A History built by Builder or
// decoded by package histio is already validated and indexed; histories
// assembled by hand must call Validate before being checked, and again
// after every Append (see Validated).
type History struct {
	Txns []*Txn

	// Sessions maps a session id to the ids of its transactions in issue
	// order (committed and aborted alike). Built by Validate.
	Sessions [][]TxnID

	fence *Fence // checkpoint certificate for the compacted prefix, or nil

	writerOf map[WriteID]WriterRef // committed writes only
	keys     []Key                 // sorted distinct keys written by committed txns
	// validated is how many transactions (genesis included) the indexes
	// above cover: len(Txns) as of the last successful Validate, 0 after a
	// failed one.
	validated int
}

// New returns an empty history containing only the genesis transaction.
// Its indexes are empty, which is correct for genesis alone.
func New() *History {
	h := &History{validated: 1}
	h.Txns = append(h.Txns, &Txn{ID: GenesisID, Session: -1, Status: StatusCommitted})
	return h
}

// Validated returns how many transactions, genesis included, the last
// successful Validate indexed (0 if the last Validate failed). A history
// appended to since has Validated() < len(Txns): its indexes miss the new
// transactions until Validate runs again.
func (h *History) Validated() int { return h.validated }

// Append adds a transaction, assigning and returning its id. The caller
// fills Session/SeqInSession; Validate checks session consistency.
func (h *History) Append(t *Txn) TxnID {
	t.ID = TxnID(len(h.Txns))
	h.Txns = append(h.Txns, t)
	return t.ID
}

// Len returns the number of transactions excluding genesis (the live
// window only, when the history carries a fence).
func (h *History) Len() int { return len(h.Txns) - 1 }

// SetFence installs a checkpoint certificate: the history becomes the live
// window of a longer execution whose checked prefix was compacted away.
// Validation then resolves reads of pre-fence write ids through the
// certificate, offsets session sequence numbers by the fenced counts, and
// reports external (pre-compaction) transaction ids in errors.
func (h *History) SetFence(f *Fence) { h.fence = f }

// Fence returns the installed checkpoint certificate, or nil for an
// ordinary (unbounded) history.
func (h *History) Fence() *Fence { return h.fence }

// NumCommitted returns the number of committed transactions excluding
// genesis.
func (h *History) NumCommitted() int {
	n := 0
	for _, t := range h.Txns[1:] {
		if t.Committed() {
			n++
		}
	}
	return n
}

// Txn returns the transaction with the given id, or nil if out of range.
func (h *History) Txn(id TxnID) *Txn {
	if id < 0 || int(id) >= len(h.Txns) {
		return nil
	}
	return h.Txns[id]
}

// WriterOf resolves a write id to the committed transaction and op that
// produced it. The genesis write id resolves to {GenesisID, -1}; so does
// the latest pre-fence version of a key, because the fence plays the role
// of a generalized genesis — it installed the "initial" version of every
// key the compacted prefix wrote. A write of a transaction that did not
// commit does not resolve, and neither do superseded or aborted pre-fence
// ids (Validate rejects any history that observes them).
func (h *History) WriterOf(w WriteID) (WriterRef, bool) {
	if w == GenesisWriteID {
		return WriterRef{Txn: GenesisID, Op: -1}, true
	}
	if f := h.fence; f != nil {
		if fw, ok := f.Writes[w]; ok {
			if fw.State == FencedLatest {
				return WriterRef{Txn: GenesisID, Op: -1}, true
			}
			return WriterRef{}, false
		}
	}
	ref, ok := h.writerOf[w]
	return ref, ok
}

// Keys returns the sorted distinct keys written by committed transactions.
// The slice is shared; callers must not modify it.
func (h *History) Keys() []Key { return h.keys }

// KeysInRange returns the written keys k with lo <= k <= hi.
func (h *History) KeysInRange(lo, hi Key) []Key {
	i := sort.Search(len(h.keys), func(i int) bool { return h.keys[i] >= lo })
	j := sort.Search(len(h.keys), func(i int) bool { return h.keys[i] > hi })
	if i >= j {
		return nil
	}
	return h.keys[i:j]
}

// ViolationKind classifies well-formedness failures that make a history
// trivially non-SI (or malformed) before any graph analysis.
type ViolationKind uint8

const (
	// ErrMalformed covers structural problems: duplicate write ids, bad
	// session sequencing, genesis tampering.
	ErrMalformed ViolationKind = iota
	// ErrUnknownWrite is a read observing a write id no logged transaction
	// produced (a fabricated value).
	ErrUnknownWrite
	// ErrAbortedRead is a read observing a value written by an aborted
	// transaction (Adya's G1a).
	ErrAbortedRead
	// ErrFutureRead is a read inside a transaction observing a write that
	// the same transaction performs only later in program order.
	ErrFutureRead
	// ErrWrongKey is a read observing a write id that was written to a
	// different key (the database swapped values between keys).
	ErrWrongKey
	// ErrRangeBounds is a range query returning a key outside its bounds.
	ErrRangeBounds
	// ErrStaleFencedRead is a live read (or range query) in a compacted
	// history observing a key's pre-fence state other than its final
	// pre-fence version: a superseded pre-fence write id, or the key's
	// initial version (absent / genesis) when the checked prefix wrote the
	// key. Either way the reader's snapshot predates a version the fence
	// asserts was installed before every live transaction, so the
	// observation cannot be ordered after the fence. Unbounded checking of
	// the same execution may or may not reject it; the compacted checker
	// reports this dedicated class so the straddle is auditable.
	ErrStaleFencedRead
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case ErrMalformed:
		return "malformed history"
	case ErrUnknownWrite:
		return "read observed unknown write id"
	case ErrAbortedRead:
		return "read observed aborted write (G1a)"
	case ErrFutureRead:
		return "read observed the transaction's own later write"
	case ErrWrongKey:
		return "read observed a write id belonging to a different key"
	case ErrRangeBounds:
		return "range query returned a key outside its bounds"
	case ErrStaleFencedRead:
		return "read observed a pre-checkpoint state older than the fence"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// ValidationError reports a well-formedness violation found by Validate.
type ValidationError struct {
	Kind ViolationKind
	Txn  TxnID
	Op   int
	Msg  string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("history validation: %s (txn %d, op %d): %s", e.Kind, e.Txn, e.Op, e.Msg)
}

func (h *History) errf(kind ViolationKind, txn TxnID, op int, format string, args ...any) error {
	// Report external ids so a violation in a compacted session names the
	// same transaction the unbounded checker (and the client) would.
	return &ValidationError{Kind: kind, Txn: h.fence.ExternalID(txn), Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks well-formedness and builds the internal indexes
// (writer-of, session order, key set). It must be called (and succeed)
// before a history is handed to any checker. The checks correspond to the
// immediate rejections of the paper's algorithm (Figure 4 line 32) plus
// collector-level invariants:
//
//   - write ids are globally unique;
//   - every read resolves to genesis or to a committed write of the same key;
//   - no read observes the issuing transaction's own later write;
//   - range results respect their bounds and resolve like reads;
//   - session sequence numbers are dense and transactions within a session
//     do not overlap in time (sessions are synchronous).
func (h *History) Validate() error {
	h.validated = 0
	h.writerOf = make(map[WriteID]WriterRef, len(h.Txns)*4)
	h.keys = h.keys[:0]
	h.Sessions = nil

	if len(h.Txns) == 0 || !h.Txns[0].IsGenesis() || !h.Txns[0].Committed() {
		return h.errf(ErrMalformed, 0, -1, "missing or invalid genesis transaction")
	}

	// Pass 1: index committed writes, check uniqueness, collect keys.
	keySet := make(map[Key]struct{})
	aborted := make(map[WriteID]WriterRef) // the other writes, for G1a detection
	for _, t := range h.Txns[1:] {
		if int(t.ID) >= len(h.Txns) || h.Txns[t.ID] != t {
			return h.errf(ErrMalformed, t.ID, -1, "transaction id does not match its index")
		}
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case OpWrite, OpInsert, OpDelete:
				if op.WriteID == GenesisWriteID {
					return h.errf(ErrMalformed, t.ID, i, "write with reserved genesis write id")
				}
				if f := h.fence; f != nil {
					if _, dup := f.Writes[op.WriteID]; dup {
						return h.errf(ErrMalformed, t.ID, i, "duplicate write id %d (already written before the fence)", op.WriteID)
					}
				}
				if prev, dup := h.anyWrite(op.WriteID, aborted); dup {
					return h.errf(ErrMalformed, t.ID, i, "duplicate write id %d (first written by txn %d)", op.WriteID, prev.Txn)
				}
				if t.Committed() {
					h.writerOf[op.WriteID] = WriterRef{Txn: t.ID, Op: i}
					keySet[op.Key] = struct{}{}
				} else {
					aborted[op.WriteID] = WriterRef{Txn: t.ID, Op: i}
				}
			}
		}
	}

	// Pass 2: resolve reads, check program order and range bounds.
	for _, t := range h.Txns[1:] {
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case OpRead:
				if err := h.validateRead(t, i, op.Key, op.Observed, aborted); err != nil {
					return err
				}
			case OpRange:
				if op.Hi < op.Lo {
					return h.errf(ErrMalformed, t.ID, i, "range query with hi %q < lo %q", op.Hi, op.Lo)
				}
				seen := make(map[Key]struct{}, len(op.Result))
				for _, v := range op.Result {
					if v.Key < op.Lo || v.Key > op.Hi {
						return h.errf(ErrRangeBounds, t.ID, i, "returned key %q outside [%q,%q]", v.Key, op.Lo, op.Hi)
					}
					if _, dup := seen[v.Key]; dup {
						return h.errf(ErrMalformed, t.ID, i, "range query returned key %q twice", v.Key)
					}
					seen[v.Key] = struct{}{}
					if err := h.validateRead(t, i, v.Key, v.WriteID, aborted); err != nil {
						return err
					}
				}
				if f := h.fence; f != nil {
					// Silence about a fenced-written key claims the key is
					// absent — an initial-version observation that predates
					// the fence.
					for _, k := range f.KeysInRange(op.Lo, op.Hi) {
						if _, ok := seen[k]; !ok {
							return h.errf(ErrStaleFencedRead, t.ID, i, "range [%q,%q] silent about key %q written before the fence", op.Lo, op.Hi, k)
						}
					}
				}
			}
		}
	}

	// Pass 3: session order.
	maxSess := int32(-1)
	for _, t := range h.Txns[1:] {
		if t.Session < 0 {
			return h.errf(ErrMalformed, t.ID, -1, "transaction without a session")
		}
		if t.Session > maxSess {
			maxSess = t.Session
		}
	}
	h.Sessions = make([][]TxnID, maxSess+1)
	for _, t := range h.Txns[1:] {
		h.Sessions[t.Session] = append(h.Sessions[t.Session], t.ID)
	}
	for sid, txns := range h.Sessions {
		sort.Slice(txns, func(a, b int) bool {
			return h.Txns[txns[a]].SeqInSession < h.Txns[txns[b]].SeqInSession
		})
		base := 0
		if f := h.fence; f != nil && sid < len(f.SessBase) {
			base = int(f.SessBase[sid])
		}
		for i, id := range txns {
			if int(h.Txns[id].SeqInSession) != base+i {
				return h.errf(ErrMalformed, id, -1, "session %d sequence numbers not dense at position %d", sid, base+i)
			}
		}
	}

	h.keys = make([]Key, 0, len(keySet))
	for k := range keySet {
		h.keys = append(h.keys, k)
	}
	sort.Slice(h.keys, func(a, b int) bool { return h.keys[a] < h.keys[b] })
	h.validated = len(h.Txns)
	return nil
}

// anyWrite finds a write id among the committed writes, then among the
// writes of transactions that did not commit.
func (h *History) anyWrite(w WriteID, aborted map[WriteID]WriterRef) (WriterRef, bool) {
	if ref, ok := h.writerOf[w]; ok {
		return ref, true
	}
	ref, ok := aborted[w]
	return ref, ok
}

// validateRead checks a single observation (key, observed write id) made by
// transaction t at op index i.
func (h *History) validateRead(t *Txn, i int, key Key, obs WriteID, aborted map[WriteID]WriterRef) error {
	if obs == GenesisWriteID {
		if f := h.fence; f != nil && f.Written(key) {
			// The checked prefix installed a version of this key; observing
			// the initial (absent) version means the reader's snapshot
			// predates the fence. This holds even when the fenced latest is
			// a tombstone: an explicit tombstone observation carries its
			// write id, while absence claims the delete never happened.
			return h.errf(ErrStaleFencedRead, t.ID, i, "key %q observed as absent but was written before the fence", key)
		}
		return nil
	}
	if f := h.fence; f != nil {
		if fw, ok := f.Writes[obs]; ok {
			if fw.Key != key {
				return h.errf(ErrWrongKey, t.ID, i, "write id %d belongs to key %q, read on key %q", obs, fw.Key, key)
			}
			switch fw.State {
			case FencedLatest:
				return nil
			case FencedAborted:
				return h.errf(ErrAbortedRead, t.ID, i, "key %q, write id %d written by an aborted pre-fence txn", key, obs)
			default:
				return h.errf(ErrStaleFencedRead, t.ID, i, "key %q, write id %d superseded before the fence", key, obs)
			}
		}
	}
	ref, known := h.anyWrite(obs, aborted)
	if !known {
		return h.errf(ErrUnknownWrite, t.ID, i, "key %q, write id %d", key, obs)
	}
	wtxn := h.Txns[ref.Txn]
	if wtxn.Ops[ref.Op].Key != key {
		return h.errf(ErrWrongKey, t.ID, i, "write id %d belongs to key %q, read on key %q", obs, wtxn.Ops[ref.Op].Key, key)
	}
	if ref.Txn == t.ID {
		// Internal read: fine only if the write precedes the read in
		// program order.
		if ref.Op > i {
			return h.errf(ErrFutureRead, t.ID, i, "key %q, write id %d written at op %d", key, obs, ref.Op)
		}
		return nil
	}
	if !wtxn.Committed() {
		return h.errf(ErrAbortedRead, t.ID, i, "key %q, write id %d written by aborted txn %d", key, obs, ref.Txn)
	}
	return nil
}

// LastWritePerKey returns, for a committed transaction, the op index of the
// externally visible (last) write to each key it wrote. Under SI only the
// final version a transaction installs is visible to other transactions,
// and the paper's algorithm assumes one write per key per transaction; this
// is the canonicalization that makes arbitrary transactions fit that
// assumption.
func (t *Txn) LastWritePerKey() map[Key]int {
	m := make(map[Key]int)
	for i := range t.Ops {
		switch t.Ops[i].Kind {
		case OpWrite, OpInsert, OpDelete:
			m[t.Ops[i].Key] = i
		}
	}
	return m
}

// LastWriteOf returns the op index of the transaction's last write to key,
// the entry LastWritePerKey would hold for it, by scanning the ops
// instead of building the whole map.
func (t *Txn) LastWriteOf(key Key) (int, bool) {
	for i := len(t.Ops) - 1; i >= 0; i-- {
		switch op := &t.Ops[i]; op.Kind {
		case OpWrite, OpInsert, OpDelete:
			if op.Key == key {
				return i, true
			}
		}
	}
	return 0, false
}

// ExternalReads calls fn for every observation the transaction makes of
// *other* transactions' writes (or genesis): plain reads and range-query
// result entries whose observed version was not produced earlier in this
// same transaction. Range queries additionally produce synthetic
// genesis observations for written keys inside the range that were absent
// from the result (core's session indexer, Incremental.update, derives
// those).
func (t *Txn) ExternalReads(fn func(key Key, observed WriteID)) {
	written := make(map[WriteID]bool)
	for i := range t.Ops {
		op := &t.Ops[i]
		switch op.Kind {
		case OpWrite, OpInsert, OpDelete:
			written[op.WriteID] = true
		case OpRead:
			if op.Observed != GenesisWriteID && written[op.Observed] {
				continue // read-your-own-write
			}
			fn(op.Key, op.Observed)
		case OpRange:
			for _, v := range op.Result {
				if v.WriteID != GenesisWriteID && written[v.WriteID] {
					continue
				}
				fn(v.Key, v.WriteID)
			}
		}
	}
}

// Stats summarizes a history.
type Stats struct {
	Txns      int // committed, excluding genesis
	Aborted   int
	Sessions  int
	Reads     int // external read observations (incl. range results)
	Writes    int // committed writes (incl. inserts and tombstones)
	Ranges    int
	Keys      int
	Violation error // non-nil if Validate failed
}

// Per-object accounting constants for EstimateBytes. Deliberately
// platform-independent round numbers (struct payload plus allocator and
// index overhead) so gauge values are reproducible in tests and reports.
const (
	txnEstBytes       = 96
	opEstBytes        = 112
	rangeEntryBytes   = 40
	writerIndexBytes  = 64
	sessionIndexBytes = 8
)

// EstimateBytes approximates the live history's in-memory footprint:
// transactions, operations, range results, keys, and the writer/session
// indexes — everything a checkpoint can reclaim. The certificate itself is
// accounted separately by Fence.Bytes.
func (h *History) EstimateBytes() int64 {
	n := int64(0)
	for _, t := range h.Txns[1:] {
		n += txnEstBytes
		for i := range t.Ops {
			op := &t.Ops[i]
			n += opEstBytes + int64(len(op.Key)+len(op.Lo)+len(op.Hi))
			for _, v := range op.Result {
				n += rangeEntryBytes + int64(len(v.Key))
			}
			switch op.Kind {
			case OpWrite, OpInsert, OpDelete:
				n += writerIndexBytes
			}
		}
		n += sessionIndexBytes
	}
	for _, k := range h.keys {
		n += fencedKeyBytes + int64(len(k))
	}
	return n
}

// ComputeStats validates the history if needed and summarizes it.
func (h *History) ComputeStats() Stats {
	s := Stats{Sessions: len(h.Sessions), Keys: len(h.keys)}
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			s.Aborted++
			continue
		}
		s.Txns++
		for i := range t.Ops {
			switch t.Ops[i].Kind {
			case OpRead:
				s.Reads++
			case OpWrite, OpInsert, OpDelete:
				s.Writes++
			case OpRange:
				s.Ranges++
				s.Reads += len(t.Ops[i].Result)
			}
		}
	}
	return s
}
