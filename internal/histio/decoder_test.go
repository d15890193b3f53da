package histio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"viper/internal/histgen"
	"viper/internal/history"
)

// TestDecoderStreamsWholeLog: the streaming decoder over a complete log
// yields exactly the transactions Decode materializes.
func TestDecoderStreamsWholeLog(t *testing.T) {
	h := sampleHistory(t)
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	var got []*history.Txn
	for {
		tx, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tx)
	}
	if len(got) != h.Len() {
		t.Fatalf("decoded %d txns, want %d", len(got), h.Len())
	}
	if d.Declared() != h.Len() || d.Decoded() != h.Len() {
		t.Fatalf("declared=%d decoded=%d want %d", d.Declared(), d.Decoded(), h.Len())
	}
	for i, tx := range got {
		want := h.Txns[i+1]
		if tx.Session != want.Session || len(tx.Ops) != len(want.Ops) {
			t.Fatalf("txn %d: got %+v want %+v", i, tx, want)
		}
	}
}

// TestDecoderErrorContext: malformed records produce DecodeError values
// carrying the line number, record index, and (for op-level failures) the
// op index and kind.
func TestDecoderErrorContext(t *testing.T) {
	drain := func(input string) error {
		d := NewDecoder(strings.NewReader(input))
		for {
			if _, err := d.Next(); err != nil {
				return err
			}
		}
	}
	head := `{"viper":"history","version":1,"txns":2}` + "\n"

	var de *DecodeError
	err := drain(head + `{"s":0,"n":0,"ops":[]}` + "\n" + `{broken` + "\n")
	if !errors.As(err, &de) || de.Line != 3 || de.Record != 1 || de.Op != -1 {
		t.Fatalf("syntax error context: %v", err)
	}

	err = drain(head + `{"s":0,"n":0,"ops":[{"k":"w","key":"x","wid":1},{"k":"zz","key":"y"}]}` + "\n")
	if !errors.As(err, &de) || de.Line != 2 || de.Record != 0 || de.Op != 1 || de.Kind != "zz" {
		t.Fatalf("op error context: %v", err)
	}

	err = drain(`{"viper":"other","version":1,"txns":0}` + "\n")
	if !errors.As(err, &de) || de.Record != HeaderRecord || de.Line != 1 {
		t.Fatalf("header error context: %v", err)
	}

	err = drain(head + `{"s":0,"n":0,"ops":[]}` + "\n")
	if !errors.As(err, &de) || de.Record != 1 {
		t.Fatalf("count mismatch context: %v", err)
	}
	if !strings.Contains(err.Error(), "declares 2") {
		t.Fatalf("count mismatch message: %v", err)
	}

	if err := drain(""); !errors.As(err, &de) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

// TestDecoderSticky: after a decode error, every further Next returns the
// same error rather than resynchronizing on garbage.
func TestDecoderSticky(t *testing.T) {
	d := NewDecoder(strings.NewReader(
		`{"viper":"history","version":1,"txns":2}` + "\n" + `nope` + "\n" +
			`{"s":0,"n":0,"ops":[]}` + "\n"))
	_, err1 := d.Next()
	if err1 == nil {
		t.Fatal("expected error")
	}
	_, err2 := d.Next()
	if err2 != err1 {
		t.Fatalf("error not sticky: %v vs %v", err1, err2)
	}
}

// growingReader simulates a log file being appended to: reads drain the
// current buffer and report io.EOF until more bytes arrive.
type growingReader struct{ buf bytes.Buffer }

func (g *growingReader) Read(p []byte) (int, error) { return g.buf.Read(p) }

// TestDecoderTailMode: in tail mode a partially written final line is
// held back — Next returns io.EOF until the newline arrives, then decodes
// the completed record; the header count is never enforced mid-stream.
func TestDecoderTailMode(t *testing.T) {
	g := &growingReader{}
	d := NewDecoder(g)
	d.SetTail(true)

	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("empty tail stream: %v", err)
	}
	g.buf.WriteString(`{"viper":"history","version":1,"txns":2}` + "\n")
	rec := `{"s":0,"n":0,"ops":[{"k":"w","key":"x","wid":1}]}`
	g.buf.WriteString(rec[:10]) // partial record
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("partial line should wait: %v", err)
	}
	g.buf.WriteString(rec[10:] + "\n")
	tx, err := d.Next()
	if err != nil || len(tx.Ops) != 1 || tx.Ops[0].Key != "x" {
		t.Fatalf("completed record: %+v, %v", tx, err)
	}
	// Stream ends with fewer records than declared: tail mode keeps
	// returning io.EOF (the log may still grow) instead of erroring.
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("tail EOF: %v", err)
	}
}

// TestDecoderLongRecord: a record longer than the read buffer decodes the
// same whole and when its line arrives split mid-way in tail mode.
func TestDecoderLongRecord(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	big := s.Txn()
	for i := 0; i < 40000; i++ {
		big.Write(history.Key(fmt.Sprintf("key-%06d", i)))
	}
	big.Commit()
	s.Txn().Write("x").Commit()
	var buf bytes.Buffer
	if err := Encode(&buf, b.MustHistory()); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	start := strings.IndexByte(log, '\n') + 1
	end := start + strings.IndexByte(log[start:], '\n')
	if end-start <= readBufSize {
		t.Fatalf("record is %d bytes, want more than the %d-byte read buffer", end-start, readBufSize)
	}
	want, err := referenceDecode(log)
	if err != nil || len(want) != 2 || len(want[0].Ops) != 40000 {
		t.Fatalf("reference decode: %d txns, %v", len(want), err)
	}
	got, err := drainDecoder(NewDecoder(strings.NewReader(log)), nil)
	if diff := sameDecode(got, err, want, nil); diff != "" {
		t.Fatalf("whole stream: %.300s", diff)
	}
	got, err = decodeSplit(log, (start+end)/2)
	if diff := sameDecode(got, err, want, nil); diff != "" {
		t.Fatalf("tail mode split mid-record: %.300s", diff)
	}
}

// TestDecodeAllocs pins the cost of a canonical record: an 8-op record
// with distinct keys allocates its Txn, its Ops slice and the eight key
// strings, and nothing per line.
func TestDecodeAllocs(t *testing.T) {
	const runs = 200
	var rec strings.Builder
	rec.WriteString(`{"s":3,"n":7,"b":1700000000000000000,"c":1700000000000001000,"ops":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			rec.WriteByte(',')
		}
		if i < 4 {
			fmt.Fprintf(&rec, `{"k":"r","key":"key-%04d","obs":%d}`, i, 1000+i)
		} else {
			fmt.Fprintf(&rec, `{"k":"w","key":"key-%04d","wid":%d}`, i, 2000+i)
		}
	}
	rec.WriteString("]}\n")
	// AllocsPerRun makes one warm-up call (header and first record) and
	// then runs more, one record each.
	input := fmt.Sprintf(`{"viper":"history","version":1,"txns":%d}`+"\n", runs+1) +
		strings.Repeat(rec.String(), runs+1)
	d := NewDecoder(strings.NewReader(input))
	allocs := testing.AllocsPerRun(runs, func() {
		if tx, err := d.Next(); err != nil || len(tx.Ops) != 8 {
			t.Fatalf("Next: %v", err)
		}
	})
	if allocs > 10 {
		t.Fatalf("%.1f allocations per 8-op record, want at most 10", allocs)
	}
}

// BenchmarkDecoder streams an encoded histgen.SI log of 20k transactions
// through the Decoder, the way cmd/viper reads a log file.
func BenchmarkDecoder(b *testing.B) {
	h := histgen.SI(histgen.Spec{Txns: 20000, Keys: 2000, ReadsPerTxn: 8, WritesPerTxn: 8, Seed: 1})
	var buf bytes.Buffer
	if err := Encode(&buf, h); err != nil {
		b.Fatal(err)
	}
	log := buf.Bytes()
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txns, err := drainDecoder(NewDecoder(bytes.NewReader(log)), nil)
		if err != nil || len(txns) != h.Len() {
			b.Fatalf("decoded %d txns, want %d: %v", len(txns), h.Len(), err)
		}
	}
}

// referenceDecode is the decoder without its scanner or its buffering:
// lines split on '\n', blank ones skipped except an unterminated last
// one, the header through decodeHeader and every record line through
// encoding/json (unmarshalTxn). It returns the transactions decoded before
// the first error, and nil at a clean end of stream.
func referenceDecode(input string) ([]*history.Txn, error) {
	var txns []*history.Txn
	declared, gotHeader, lineNo := 0, false, 0
	for rest := input; ; {
		var line string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
			lineNo++
			if strings.TrimSpace(line) == "" {
				continue
			}
		} else if rest != "" {
			line, rest = rest, ""
			lineNo++
		} else if !gotHeader {
			return txns, &DecodeError{Line: lineNo + 1, Record: HeaderRecord, Op: -1, Err: io.ErrUnexpectedEOF}
		} else if len(txns) != declared {
			return txns, &DecodeError{Line: lineNo, Record: len(txns), Op: -1,
				Err: fmt.Errorf("header declares %d txns, log has %d", declared, len(txns))}
		} else {
			return txns, nil
		}
		if !gotHeader {
			n, err := decodeHeader([]byte(line), lineNo)
			if err != nil {
				return txns, err
			}
			declared, gotHeader = n, true
			continue
		}
		tx, err := unmarshalTxn([]byte(line), lineNo, len(txns))
		if err != nil {
			return txns, err
		}
		txns = append(txns, tx)
	}
}

// drainDecoder appends every transaction d yields until io.EOF (returned
// as nil) or an error.
func drainDecoder(d *Decoder, txns []*history.Txn) ([]*history.Txn, error) {
	for {
		tx, err := d.Next()
		if err == io.EOF {
			return txns, nil
		}
		if err != nil {
			return txns, err
		}
		txns = append(txns, tx)
	}
}

// decodeSplit feeds input to a tail-mode decoder in two writes, cut at
// split, then ends the stream with SetTail(false): the chunked-append
// path of a viperd session.
func decodeSplit(input string, split int) ([]*history.Txn, error) {
	g := &growingReader{}
	d := NewDecoder(g)
	d.SetTail(true)
	g.buf.WriteString(input[:split])
	txns, err := drainDecoder(d, nil)
	if err != nil {
		return txns, err
	}
	g.buf.WriteString(input[split:])
	if txns, err = drainDecoder(d, txns); err != nil {
		return txns, err
	}
	d.SetTail(false)
	return drainDecoder(d, txns)
}

// sameDecode reports how two decodes of one input differ, or "" when
// they yield the same transactions and the same error.
func sameDecode(gotTxns []*history.Txn, gotErr error, wantTxns []*history.Txn, wantErr error) string {
	if !reflect.DeepEqual(gotTxns, wantTxns) {
		return fmt.Sprintf("transactions differ:\n got %d: %s\nwant %d: %s",
			len(gotTxns), dumpTxns(gotTxns), len(wantTxns), dumpTxns(wantTxns))
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr == nil {
		return ""
	}
	got, gotOK := Describe(gotErr)
	want, wantOK := Describe(wantErr)
	if !gotOK || !wantOK || got != want {
		return fmt.Sprintf("error %#v (%v), want %#v (%v)", got, gotErr, want, wantErr)
	}
	return ""
}

func dumpTxns(txns []*history.Txn) string {
	var b strings.Builder
	for _, tx := range txns {
		fmt.Fprintf(&b, "%+v ", *tx)
	}
	return b.String()
}

// FuzzDecoder is the decoder's differential: on arbitrary (truncated,
// malformed, binary) input the streaming decoder must yield exactly the
// transactions and the error (line, record, op, kind and reason) of
// referenceDecode, whether the input arrives whole or in tail mode split
// at an arbitrary offset; the materializing Decode must not panic.
func FuzzDecoder(f *testing.F) {
	b := history.NewBuilder()
	s := b.Session()
	t1 := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", t1.WriteIDOf("x")).Commit()
	var buf bytes.Buffer
	if err := Encode(&buf, b.MustHistory()); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	buf.Reset()
	if err := Encode(&buf, sampleHistory(f)); err != nil {
		f.Fatal(err)
	}
	sample := buf.String()
	for _, seed := range []string{
		valid,
		sample,
		valid[:len(valid)/2], // truncated mid-record
		strings.Replace(valid, `"k":"w"`, `"k":5`, 1), // type confusion
		strings.ReplaceAll(sample, "\n", "\r\n"),      // CRLF line endings
		"",
		"\n\n\n",
		"{}",
		`{"viper":"history","version":1,"txns":0}`,
		`{"viper":"history","version":1,"txns":-1}` + "\n" + `{"s":0,"n":0,"ops":null}`,
		"\x00\x01\x02{]",
		"{\"viper\":\"history\",\"version\":1,\"txns\":1}\n{\"s\":0,\"n\":0,\"ops\":[]}\n   ", // blank unterminated tail
	} {
		f.Add(seed, uint(len(seed)/2))
	}
	for _, c := range scannerLines {
		seed := `{"viper":"history","version":1,"txns":1}` + "\n" + c.line + "\n"
		f.Add(seed, uint(len(seed)-len(c.line)/2))
	}

	f.Fuzz(func(t *testing.T, input string, split uint) {
		wantTxns, wantErr := referenceDecode(input)
		txns, err := drainDecoder(NewDecoder(strings.NewReader(input)), nil)
		if diff := sameDecode(txns, err, wantTxns, wantErr); diff != "" {
			t.Fatalf("whole stream: %s", diff)
		}
		k := int(split % uint(len(input)+1))
		txns, err = decodeSplit(input, k)
		if diff := sameDecode(txns, err, wantTxns, wantErr); diff != "" {
			t.Fatalf("tail mode split at %d: %s", k, diff)
		}
		// The materializing path must not panic either (validation errors
		// are fine — fuzz inputs are rarely consistent histories).
		_, _ = Decode(strings.NewReader(input))
	})
}
