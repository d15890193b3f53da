package histio

import (
	"bytes"
	"reflect"
	"testing"

	"viper/internal/histgen"
	"viper/internal/history"
)

// scannerLines are record lines on both sides of the scanner's subset:
// take says whether the scanner decodes the line itself or declines it
// to encoding/json. FuzzDecoder seeds its corpus with them.
var scannerLines = []struct {
	line string
	take bool
}{
	{`{"s":0,"n":0,"ops":[]}`, true},
	{` { "ops" : [ {"wid":3, "key":"x", "k":"w"} ] ,` + "\t" + `"c":9,"b":-4, "n":0,"s":2 } ` + "\r", true},
	{`{"s":0,"n":0,"ops":[{"res":[{"tomb":true,"wid":2,"key":"k"}],"hi":"z","lo":"a","k":"q"}]}`, true},
	{`{"s":-2147483648,"n":2147483647,"b":-9223372036854775808,"c":9223372036854775807,"ops":[]}`, true},
	{`{"s":0,"n":0,"b":-0,"aborted":false,"ops":[{"k":"r","key":"x","obs":5,"tomb":true,"wid":9,"res":[{"key":"y","wid":1}]}]}`, true},
	{`{"s":0,"n":0,"ops":[{"k":"w","key":"x\u0041","wid":1}]}`, false},              // escape
	{`{"s":0,"n":0,"ops":[{"k":"w","key":"ключ","wid":1}]}`, false},                 // non-ASCII
	{"{\"s\":0,\"n\":0,\"ops\":[{\"k\":\"w\",\"key\":\"\xff\",\"wid\":1}]}", false}, // invalid UTF-8
	{"{\"s\":0,\"n\":0,\"ops\":[{\"k\":\"w\",\"key\":\"a\tb\",\"wid\":1}]}", false}, // control byte
	{`{"s":0,"n":0,"ops":null}`, false},        // null
	{`{"s":0,"n":0,"b":null,"ops":[]}`, false}, // null scalar
	{`null`, false}, // null record
	{`{"s":0,"n":0,"b":1.5,"ops":[]}`, false},                    // fraction
	{`{"s":0,"n":0,"b":1e3,"ops":[]}`, false},                    // exponent
	{`{"s":0,"n":0,"b":01,"ops":[]}`, false},                     // leading zero
	{`{"s":2147483648,"n":0,"ops":[]}`, false},                   // int32 overflow
	{`{"s":0,"n":0,"b":9223372036854775808,"ops":[]}`, false},    // int64 overflow
	{`{"s":0,"n":0,"extra":[1,{"a":2}],"ops":[]}`, false},        // unknown member
	{`{"s":0,"s":1,"n":0,"ops":[]}`, false},                      // duplicate member
	{`{"S":3,"N":1,"OPS":[{"K":"w","Key":"x","WID":1}]}`, false}, // case-folded members
	{`{"s":0,"n":0,"ops":[{"k":"zz","key":"y"}]}`, false},        // unknown op kind
	{`{"s":0,"n":0,"aborted":1,"ops":[]}`, false},                // wrong type
	{`{"s":0,"n":0,"ops":[]} {}`, false},                         // trailing value
	{`{"s":0,"n":0,"ops":[],}`, false},                           // malformed
	{"\v{\"s\":0,\"n\":0,\"ops\":[]}", false},                    // non-JSON space
}

// scanAgrees reports whether sc takes line, failing t if it decodes the
// line differently from the encoding/json path.
func scanAgrees(t *testing.T, sc *scanner, line []byte) bool {
	t.Helper()
	got, ok := sc.txn(line)
	if ok {
		want, err := unmarshalTxn(line, 2, 0)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v (%v)", line, got, want, err)
		}
	}
	return ok
}

// TestScannerSubset: the scanner takes exactly the lines marked take, and
// decodes each of them as encoding/json does.
func TestScannerSubset(t *testing.T) {
	for _, c := range scannerLines {
		if took := scanAgrees(t, new(scanner), []byte(c.line)); took != c.take {
			t.Errorf("scanner took=%v, want %v: %s", took, c.take, c.line)
		}
	}
}

// TestScannerTakesEncodeOutput: every record line Encode writes goes
// through the scanner, with the encoding/json path's result, so a change
// to Encode's output cannot quietly move every log onto the slow path.
func TestScannerTakesEncodeOutput(t *testing.T) {
	for name, h := range map[string]*history.History{
		"sample":     sampleHistory(t),
		"histgen.SI": histgen.SI(histgen.Spec{Txns: 500, Keys: 50, AbortEvery: 7, Seed: 1}),
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, h); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))[1:]
		if len(lines) != h.Len() {
			t.Fatalf("%s: %d record lines, want %d", name, len(lines), h.Len())
		}
		var sc scanner
		for i, line := range lines {
			if !scanAgrees(t, &sc, line) {
				t.Fatalf("%s: record %d declined: %s", name, i, line)
			}
		}
	}
}
