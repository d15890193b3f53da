package histio

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"viper/internal/history"
)

func sampleHistory(t testing.TB) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	w := s1.Txn().Write("x").Insert("k1").Commit()
	d := s2.Txn().ReadObserved("k1", w.WriteIDOf("k1")).Delete("k1").Commit()
	r := s1.Txn().
		ReadObserved("x", w.WriteIDOf("x")).
		ReadObserved("k1", d.WriteIDOf("k1")).
		Range("a", "z", history.Version{Key: "k1", WriteID: d.WriteIDOf("k1"), Tombstone: true}).
		Commit()
	r.Txn().Ops[1].ObservedTombstone = true // the read saw k1's delete
	s2.Txn().Write("y").Abort()
	return b.MustHistory()
}

func TestRoundTrip(t *testing.T) {
	h := sampleHistory(t)
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != h.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), h.Len())
	}
	for i := 1; i < len(h.Txns); i++ {
		a, b := h.Txns[i], got.Txns[i]
		if a.Session != b.Session || a.SeqInSession != b.SeqInSession ||
			a.BeginAt != b.BeginAt || a.CommitAt != b.CommitAt || a.Status != b.Status {
			t.Fatalf("txn %d metadata mismatch: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Fatalf("txn %d ops mismatch:\n%+v\n%+v", i, a.Ops, b.Ops)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	h := sampleHistory(t)
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := WriteFile(path, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != h.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), h.Len())
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"viper":"nope","version":1,"txns":0}` + "\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := Decode(strings.NewReader(`{"viper":"history","version":99,"txns":0}` + "\n")); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := Decode(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	// A negative count must not pass for "no header yet" and switch the
	// end-of-stream record count check off.
	d := NewDecoder(strings.NewReader(`{"viper":"history","version":1,"txns":-1}` + "\n" +
		`{"s":0,"n":0,"ops":[]}` + "\n" + `{"s":0,"n":1,"ops":[]}` + "\n"))
	_, err := d.Next()
	var de *DecodeError
	if !errors.As(err, &de) || de.Record != HeaderRecord || de.Line != 1 || d.Declared() != -1 {
		t.Fatalf("negative txn count: err=%v declared=%d", err, d.Declared())
	}
}

func TestDecodeRejectsCountMismatch(t *testing.T) {
	in := `{"viper":"history","version":1,"txns":5}` + "\n" +
		`{"s":0,"n":0,"b":1,"c":2,"ops":[]}` + "\n"
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestDecodeRejectsUnknownOpKind(t *testing.T) {
	in := `{"viper":"history","version":1,"txns":1}` + "\n" +
		`{"s":0,"n":0,"b":1,"c":2,"ops":[{"k":"zzz"}]}` + "\n"
	_, err := Decode(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unknown op kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeValidates(t *testing.T) {
	// A read of a fabricated write id must fail validation on load.
	in := `{"viper":"history","version":1,"txns":1}` + "\n" +
		`{"s":0,"n":0,"b":1,"c":2,"ops":[{"k":"r","key":"x","obs":777}]}` + "\n"
	_, err := Decode(strings.NewReader(in))
	var verr *history.ValidationError
	if !errors.As(err, &verr) || verr.Kind != history.ErrUnknownWrite {
		t.Fatalf("err = %v, want ErrUnknownWrite", err)
	}
}

func TestEncodeEmptyHistory(t *testing.T) {
	b := history.NewBuilder()
	h := b.MustHistory()
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestSessionDirRoundTrip(t *testing.T) {
	h := sampleHistory(t)
	dir := filepath.Join(t.TempDir(), "sessions")
	if err := WriteSessionDir(dir, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessionDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != h.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), h.Len())
	}
	if len(got.Sessions) != len(h.Sessions) {
		t.Fatalf("sessions = %d, want %d", len(got.Sessions), len(h.Sessions))
	}
	// Per-session op streams must match exactly.
	for sid := range h.Sessions {
		if len(h.Sessions[sid]) != len(got.Sessions[sid]) {
			t.Fatalf("session %d lengths differ", sid)
		}
		for i := range h.Sessions[sid] {
			a := h.Txns[h.Sessions[sid][i]]
			b := got.Txns[got.Sessions[sid][i]]
			if !reflect.DeepEqual(a.Ops, b.Ops) || a.Status != b.Status {
				t.Fatalf("session %d txn %d differs", sid, i)
			}
		}
	}
}

func TestReadSessionDirEmpty(t *testing.T) {
	if _, err := ReadSessionDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// FuzzDecode: arbitrary bytes must never panic the decoder (errors are
// fine). The seed corpus includes a valid log.
func FuzzDecode(f *testing.F) {
	h := sampleHistoryForFuzz()
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"viper":"history","version":1,"txns":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		Decode(bytes.NewReader(data)) // must not panic
	})
}

func sampleHistoryForFuzz() *history.History {
	b := history.NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	return b.MustHistory()
}
