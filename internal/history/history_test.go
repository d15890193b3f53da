package history

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewHasGenesis(t *testing.T) {
	h := New()
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	g := h.Txn(GenesisID)
	if g == nil || !g.IsGenesis() || !g.Committed() {
		t.Fatalf("genesis malformed: %+v", g)
	}
}

func TestBuilderBasicRoundTrip(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Write("y").Commit()
	r := s.Txn().ReadObserved("x", w.WriteIDOf("x")).ReadGenesis("z").Commit()
	h, err := b.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", h.Len())
	}
	ref, ok := h.WriterOf(w.WriteIDOf("x"))
	if !ok || ref.Txn != w.ID {
		t.Fatalf("WriterOf(x) = %+v, %v; want txn %d", ref, ok, w.ID)
	}
	if got := h.Txn(r.ID).Ops[1].Observed; got != GenesisWriteID {
		t.Fatalf("genesis read observed %d", got)
	}
	st := h.ComputeStats()
	if st.Txns != 2 || st.Writes != 2 || st.Reads != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriterOfGenesis(t *testing.T) {
	h := New()
	ref, ok := h.WriterOf(GenesisWriteID)
	if !ok || ref.Txn != GenesisID {
		t.Fatalf("WriterOf(genesis) = %+v, %v", ref, ok)
	}
}

func TestValidateRejectsAbortedRead(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	tb := s.Txn().Write("x")
	wid := tb.WriteIDOf("x")
	tb.Abort()
	s.Txn().ReadObserved("x", wid).Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrAbortedRead {
		t.Fatalf("err = %v, want ErrAbortedRead", err)
	}
}

func TestValidateRejectsUnknownWrite(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	s.Txn().ReadObserved("x", 9999).Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrUnknownWrite {
		t.Fatalf("err = %v, want ErrUnknownWrite", err)
	}
}

func TestValidateRejectsFutureRead(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	// Read observes this txn's own write that happens later in program
	// order: the MongoDB "read your future writes" bug shape.
	future := b.NextWriteID()
	s.Txn().ReadObserved("x", future).Write("x").Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrFutureRead {
		t.Fatalf("err = %v, want ErrFutureRead", err)
	}
}

func TestValidateAllowsReadOwnWrite(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	s.Txn().Write("x").ReadOwn("x").Commit()
	if _, err := b.History(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsWrongKey(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("y", w.WriteIDOf("x")).Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrWrongKey {
		t.Fatalf("err = %v, want ErrWrongKey", err)
	}
}

func TestValidateRejectsDuplicateWriteID(t *testing.T) {
	h := New()
	h.Append(&Txn{Session: 0, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 7}}})
	h.Append(&Txn{Session: 0, SeqInSession: 1, Ops: []Op{{Kind: OpWrite, Key: "y", WriteID: 7}}})
	err := h.Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrMalformed {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestValidateRejectsRangeOutOfBounds(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	w := s.Txn().Write("zz").Commit()
	s.Txn().Range("a", "m", Version{Key: "zz", WriteID: w.WriteIDOf("zz")}).Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrRangeBounds {
		t.Fatalf("err = %v, want ErrRangeBounds", err)
	}
}

func TestValidateRejectsDuplicateRangeKey(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	w := s.Txn().Write("k").Commit()
	wid := w.WriteIDOf("k")
	s.Txn().Range("a", "z", Version{Key: "k", WriteID: wid}, Version{Key: "k", WriteID: wid}).Commit()
	_, err := b.History()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrMalformed {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestValidateRejectsSparseSessionSeq(t *testing.T) {
	h := New()
	h.Append(&Txn{Session: 0, SeqInSession: 1, Ops: nil}) // seq 0 missing
	err := h.Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Kind != ErrMalformed {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestKeysInRange(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	s.Txn().Write("a").Write("c").Write("e").Write("g").Commit()
	h := b.MustHistory()
	got := h.KeysInRange("b", "f")
	if len(got) != 2 || got[0] != "c" || got[1] != "e" {
		t.Fatalf("KeysInRange = %v", got)
	}
	if ks := h.KeysInRange("x", "z"); len(ks) != 0 {
		t.Fatalf("empty range returned %v", ks)
	}
	if ks := h.KeysInRange("a", "a"); len(ks) != 1 || ks[0] != "a" {
		t.Fatalf("point range returned %v", ks)
	}
}

func TestSessionOrderIndex(t *testing.T) {
	b := NewBuilder()
	s0, s1 := b.Session(), b.Session()
	a := s0.Txn().Write("x").Commit()
	c := s1.Txn().Write("y").Commit()
	d := s0.Txn().ReadObserved("x", a.WriteIDOf("x")).Commit()
	h := b.MustHistory()
	if len(h.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(h.Sessions))
	}
	if h.Sessions[0][0] != a.ID || h.Sessions[0][1] != d.ID {
		t.Fatalf("session 0 order = %v", h.Sessions[0])
	}
	if h.Sessions[1][0] != c.ID {
		t.Fatalf("session 1 order = %v", h.Sessions[1])
	}
}

func TestLastWritePerKey(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	tb := s.Txn().Write("x").Write("y").Write("x") // x written twice
	tb.Commit()
	h := b.MustHistory()
	lw := h.Txn(1).LastWritePerKey()
	if lw["x"] != 2 || lw["y"] != 1 {
		t.Fatalf("LastWritePerKey = %v", lw)
	}
	for _, key := range []Key{"x", "y", "z"} {
		want, wrote := lw[key]
		if got, ok := h.Txn(1).LastWriteOf(key); got != want || ok != wrote {
			t.Fatalf("LastWriteOf(%q) = %d, %v, want %d, %v", key, got, ok, want, wrote)
		}
	}
}

func TestExternalReadsSkipsOwnWrites(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	r := s.Txn().
		ReadObserved("x", w.WriteIDOf("x")).
		Write("y").ReadOwn("y").
		ReadGenesis("z").
		Commit()
	h := b.MustHistory()
	var got []Key
	h.Txn(r.ID).ExternalReads(func(k Key, obs WriteID) { got = append(got, k) })
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Fatalf("ExternalReads observed keys %v, want [x z]", got)
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{OpRead: "r", OpWrite: "w", OpInsert: "i", OpDelete: "d", OpRange: "q"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
}

// Property: any history produced by the builder with only valid operations
// validates, and write-id resolution is exact.
func TestQuickBuilderValidates(t *testing.T) {
	f := func(writes []uint8, nSessions uint8) bool {
		b := NewBuilder()
		n := int(nSessions%4) + 1
		sessions := make([]*SessionBuilder, n)
		for i := range sessions {
			sessions[i] = b.Session()
		}
		type w struct {
			key Key
			id  WriteID
		}
		var committed []w
		for i, v := range writes {
			s := sessions[i%n]
			key := Key(string(rune('a' + v%16)))
			tb := s.Txn().Write(key)
			if len(committed) > 0 && v%3 == 0 {
				prev := committed[int(v)%len(committed)]
				tb.ReadObserved(prev.key, prev.id)
			}
			if v%7 == 0 {
				tb.Abort()
			} else {
				c := tb.Commit()
				committed = append(committed, w{key, c.WriteIDOf(key)})
			}
		}
		h, err := b.History()
		if err != nil {
			return false
		}
		for _, cw := range committed {
			ref, ok := h.WriterOf(cw.id)
			if !ok {
				return false
			}
			if h.Txns[ref.Txn].Ops[ref.Op].Key != cw.key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWritesIteratorAndNumCommitted(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	s.Txn().Write("x").Insert("y").Delete("y").ReadOwn("x").Commit()
	s.Txn().Write("z").Abort()
	h := b.MustHistory()
	if h.NumCommitted() != 1 {
		t.Fatalf("NumCommitted = %d", h.NumCommitted())
	}
	var kinds []OpKind
	h.Txn(1).Writes(func(op *Op) { kinds = append(kinds, op.Kind) })
	if len(kinds) != 3 || kinds[0] != OpWrite || kinds[1] != OpInsert || kinds[2] != OpDelete {
		t.Fatalf("Writes visited %v", kinds)
	}
}

func TestViolationKindStrings(t *testing.T) {
	kinds := []ViolationKind{ErrMalformed, ErrUnknownWrite, ErrAbortedRead, ErrFutureRead, ErrWrongKey, ErrRangeBounds}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate label %q", s)
		}
		seen[s] = true
	}
	if StatusCommitted.String() != "committed" || StatusAborted.String() != "aborted" {
		t.Fatal("Status strings")
	}
}

func TestTxnOutOfRange(t *testing.T) {
	h := New()
	if h.Txn(-1) != nil || h.Txn(99) != nil {
		t.Fatal("out-of-range Txn not nil")
	}
}

func TestBuilderExtras(t *testing.T) {
	b := NewBuilder()
	s := b.Session()
	if s.ID() != 0 {
		t.Fatalf("session id = %d", s.ID())
	}
	tb := s.Txn().At(123).Insert("k")
	c := tb.CommitAt(456)
	if c.Txn().BeginAt != 123 || c.Txn().CommitAt != 456 {
		t.Fatalf("timestamps = %d/%d", c.Txn().BeginAt, c.Txn().CommitAt)
	}
	s.Txn().ReadObserved("k", c.WriteIDOf("k")).Delete("k").Commit()
	if _, err := b.History(); err != nil {
		t.Fatal(err)
	}
	if b.RawHistory().Len() != 2 {
		t.Fatal("RawHistory length")
	}
}

// TestValidatedTracksIndexedTxns: Validated covers genesis on a fresh
// history, stays behind after an Append until the next successful
// Validate, and drops to 0 when a Validate fails.
func TestValidatedTracksIndexedTxns(t *testing.T) {
	h := New()
	if got := h.Validated(); got != 1 {
		t.Fatalf("fresh history: Validated() = %d, want 1", got)
	}
	h.Append(&Txn{Session: 0, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 1}}})
	if got := h.Validated(); got != 1 {
		t.Fatalf("after Append: Validated() = %d, want 1", got)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.Validated(); got != 2 {
		t.Fatalf("after Validate: Validated() = %d, want 2", got)
	}
	h.Append(&Txn{Session: 1, Ops: []Op{{Kind: OpRead, Key: "x", Observed: 9}}})
	if err := h.Validate(); err == nil {
		t.Fatal("read of an unknown write validated")
	}
	if got := h.Validated(); got != 0 {
		t.Fatalf("after a failed Validate: Validated() = %d, want 0", got)
	}
}
