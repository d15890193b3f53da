package history

import (
	"errors"
	"strings"
	"testing"
)

// testFence builds a fence with the given classified writes. Latest is
// derived from the FencedLatest entries.
func testFence(base int64, sessBase []int32, writes map[WriteID]FencedWrite) *Fence {
	f := &Fence{
		Base:        base,
		Checkpoints: 1,
		Writes:      writes,
		Latest:      make(map[Key]WriteID),
		SessBase:    sessBase,
	}
	for w, fw := range writes {
		if fw.State == FencedLatest {
			f.Latest[fw.Key] = w
		}
	}
	f.FreezeKeys()
	return f
}

// fencedTxn appends a live transaction to a fenced history. seq is the
// live (post-fence) position; callers add the session's SessBase.
func appendTxn(h *History, sess, seq int32, ops ...Op) *Txn {
	t := &Txn{Session: sess, SeqInSession: seq, Status: StatusCommitted, Ops: ops}
	h.Append(t)
	return t
}

func wantKind(t *testing.T, err error, kind ViolationKind) *ValidationError {
	t.Helper()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != kind {
		t.Fatalf("err = %v, want %v", err, kind)
	}
	return verr
}

func TestFenceLatestResolvesToGenesis(t *testing.T) {
	f := testFence(10, []int32{2}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedLatest},
		99:  {Key: "x", State: FencedStale},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 2, Op{Kind: OpRead, Key: "x", Observed: 100})
	if err := h.Validate(); err != nil {
		t.Fatalf("latest fenced read should validate: %v", err)
	}
	// The fenced-latest id is genesis-equivalent for graph construction.
	ref, ok := h.WriterOf(100)
	if !ok || ref.Txn != GenesisID {
		t.Fatalf("WriterOf(latest fenced) = %+v, %v; want genesis", ref, ok)
	}
	if _, ok := h.WriterOf(99); ok {
		t.Fatal("superseded fenced id must not resolve")
	}
}

func TestFenceStaleReadRejected(t *testing.T) {
	f := testFence(10, []int32{2}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedLatest},
		99:  {Key: "x", State: FencedStale},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 2, Op{Kind: OpRead, Key: "x", Observed: 99})
	verr := wantKind(t, h.Validate(), ErrStaleFencedRead)
	// External ids: internal txn 1 has external id Base+1.
	if verr.Txn != 11 {
		t.Fatalf("violation names txn %d, want external id 11", verr.Txn)
	}
}

func TestFenceGenesisReadOfFencedKeyRejected(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedLatest},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpRead, Key: "x", Observed: GenesisWriteID})
	wantKind(t, h.Validate(), ErrStaleFencedRead)

	// A genuinely unwritten key still reads as absent.
	h2 := New()
	h2.SetFence(f)
	appendTxn(h2, 0, 1, Op{Kind: OpRead, Key: "y", Observed: GenesisWriteID})
	if err := h2.Validate(); err != nil {
		t.Fatalf("genesis read of unfenced key: %v", err)
	}
}

// A tombstone behind the fence still fences the key: silence (absence)
// claims the delete never happened, which predates the fence, while an
// explicit observation of the tombstone's write id is the key's legitimate
// initial state.
func TestFenceTombstoneSemantics(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		200: {Key: "k", State: FencedLatest, Tombstone: true},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpRead, Key: "k", Observed: GenesisWriteID})
	wantKind(t, h.Validate(), ErrStaleFencedRead)

	h2 := New()
	h2.SetFence(f)
	appendTxn(h2, 0, 1, Op{Kind: OpRead, Key: "k", Observed: 200, ObservedTombstone: true})
	if err := h2.Validate(); err != nil {
		t.Fatalf("explicit tombstone observation: %v", err)
	}
}

func TestFenceAbortedReadIsG1a(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedAborted},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpRead, Key: "x", Observed: 100})
	wantKind(t, h.Validate(), ErrAbortedRead)
}

func TestFenceWrongKeyRead(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedLatest},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpRead, Key: "y", Observed: 100})
	wantKind(t, h.Validate(), ErrWrongKey)
}

func TestFenceRangeSilenceRejected(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		100: {Key: "b", State: FencedLatest},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpRange, Lo: "a", Hi: "c"})
	verr := wantKind(t, h.Validate(), ErrStaleFencedRead)
	if !strings.Contains(verr.Msg, `"b"`) {
		t.Fatalf("violation should name the silent key: %s", verr.Msg)
	}

	// Observing the fenced-latest version in the result is fine.
	h2 := New()
	h2.SetFence(f)
	appendTxn(h2, 0, 1, Op{Kind: OpRange, Lo: "a", Hi: "c",
		Result: []Version{{Key: "b", WriteID: 100}}})
	if err := h2.Validate(); err != nil {
		t.Fatalf("range observing fenced latest: %v", err)
	}

	// A range that excludes the fenced key owes no observation.
	h3 := New()
	h3.SetFence(f)
	appendTxn(h3, 0, 1, Op{Kind: OpRange, Lo: "c", Hi: "d"})
	if err := h3.Validate(); err != nil {
		t.Fatalf("range excluding fenced key: %v", err)
	}
}

func TestFenceDuplicateWriteIDAcrossFence(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		100: {Key: "x", State: FencedLatest},
	})
	h := New()
	h.SetFence(f)
	appendTxn(h, 0, 1, Op{Kind: OpWrite, Key: "y", WriteID: 100})
	wantKind(t, h.Validate(), ErrMalformed)
}

func TestFenceSessionSequenceOffsets(t *testing.T) {
	f := testFence(0, []int32{3, 0}, nil)
	h := New()
	h.SetFence(f)
	// Session 0 continues at its fenced count; session 1 starts fresh.
	appendTxn(h, 0, 3, Op{Kind: OpWrite, Key: "x", WriteID: 1})
	appendTxn(h, 0, 4, Op{Kind: OpWrite, Key: "x", WriteID: 2})
	appendTxn(h, 1, 0, Op{Kind: OpWrite, Key: "y", WriteID: 3})
	if err := h.Validate(); err != nil {
		t.Fatalf("offset sequences should validate: %v", err)
	}

	// Restarting session 0 at 0 is no longer dense.
	h2 := New()
	h2.SetFence(f)
	appendTxn(h2, 0, 0, Op{Kind: OpWrite, Key: "x", WriteID: 1})
	wantKind(t, h2.Validate(), ErrMalformed)
}

func TestFenceExternalID(t *testing.T) {
	f := &Fence{Base: 40}
	if got := f.ExternalID(3); got != 43 {
		t.Fatalf("ExternalID(3) = %d, want 43", got)
	}
	if got := f.ExternalID(GenesisID); got != GenesisID {
		t.Fatalf("ExternalID(genesis) = %d, want 0", got)
	}
	var nilf *Fence
	if got := nilf.ExternalID(3); got != 3 {
		t.Fatalf("nil fence ExternalID(3) = %d, want 3", got)
	}
}

func TestFenceKeyIndex(t *testing.T) {
	f := testFence(0, nil, map[WriteID]FencedWrite{
		1: {Key: "b", State: FencedLatest},
		2: {Key: "d", State: FencedLatest},
		3: {Key: "f", State: FencedLatest},
	})
	if !f.Written("d") || f.Written("c") || f.Written("g") {
		t.Fatal("Written() misclassifies")
	}
	got := f.KeysInRange("c", "g")
	if len(got) != 2 || got[0] != "d" || got[1] != "f" {
		t.Fatalf("KeysInRange = %v", got)
	}
	if f.KeysInRange("g", "z") != nil {
		t.Fatal("empty range should be nil")
	}
}

func TestFenceBytesAndEstimateBytes(t *testing.T) {
	f := testFence(0, []int32{1}, map[WriteID]FencedWrite{
		1: {Key: "b", State: FencedLatest},
		2: {Key: "b", State: FencedStale},
	})
	// Bytes is computed once, at FreezeKeys; it must match the per-entry
	// sum over the certificate's maps.
	want := int64(len(f.SessBase))*4 + 96
	for _, fw := range f.Writes {
		want += fencedWriteBytes + int64(len(fw.Key))
	}
	for k := range f.Latest {
		want += fencedKeyBytes + 2*int64(len(k))
	}
	if got := f.Bytes(); got != want || got <= 0 {
		t.Fatalf("fence bytes = %d, want %d (positive)", got, want)
	}
	var nilf *Fence
	if nilf.Bytes() != 0 {
		t.Fatal("nil fence bytes should be 0")
	}

	h := New()
	appendTxn(h, 0, 0, Op{Kind: OpWrite, Key: "x", WriteID: 5})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	small := h.EstimateBytes()
	if small <= 0 {
		t.Fatal("estimate should be positive")
	}
	appendTxn(h, 0, 1,
		Op{Kind: OpRange, Lo: "a", Hi: "z", Result: []Version{{Key: "x", WriteID: 5}}})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.EstimateBytes() <= small {
		t.Fatal("estimate should grow with appended ops")
	}
}
