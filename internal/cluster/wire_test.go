package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/history"
)

// wireHistory builds a deterministic fuzz-shaped history from three
// integers, clamped so every mutation of the fuzz corpus stays cheap.
func wireHistory(txns, keys int, seed int64) *history.History {
	if txns < 2 {
		txns = 2
	}
	if txns > 300 {
		txns = txns%300 + 2
	}
	if keys < 1 {
		keys = 1
	}
	if keys > 24 {
		keys = keys%24 + 1
	}
	return histgen.SI(histgen.Spec{Txns: txns, Keys: keys, MaxConcurrency: 6, AbortEvery: 7, Seed: seed})
}

// roundTripShards cuts h into shards, pushes every shard through the
// binary job and digest codecs, and merges the decoded records. The
// returned records must be byte-identical to a single-node recording
// pass, and the merged polygraph verdict must match CheckHistory.
func roundTripShards(t testing.TB, h *history.History, opts core.Options, shards int) {
	ranges := partitionKeys(h, shards, 0)
	full := core.BuildShardRecords(h, opts, h.Keys())
	merger := core.NewShardMerger(h, opts)
	for ri, kr := range ranges {
		var jobBuf bytes.Buffer
		if err := encodeShardJob(&jobBuf, h, kr, opts); err != nil {
			t.Fatalf("range %d: encoding job: %v", ri, err)
		}
		dopts, dh, dkeys, err := decodeShardJob(bufio.NewReader(&jobBuf))
		if err != nil {
			t.Fatalf("range %d: decoding job: %v", ri, err)
		}
		if !reflect.DeepEqual(dkeys, h.Keys()[kr.lo:kr.hi]) {
			t.Fatalf("range %d: key table diverged", ri)
		}
		recs := core.BuildShardRecords(dh, dopts, dh.Keys())
		if !reflect.DeepEqual(recs, full[kr.lo:kr.hi]) {
			t.Fatalf("range %d: records recorded from the decoded job differ from single-node records", ri)
		}

		var digBuf bytes.Buffer
		enc := newDigestEncoder(&digBuf, "w")
		for i := range recs {
			if err := enc.record(&recs[i]); err != nil {
				t.Fatalf("range %d: encoding digest: %v", ri, err)
			}
		}
		if err := enc.close(); err != nil {
			t.Fatalf("range %d: closing digest: %v", ri, err)
		}
		_, err = decodeDigest(bufio.NewReader(&digBuf), dkeys, func(j int, rec core.KeyShardRecord) error {
			if !reflect.DeepEqual(rec, full[kr.lo+j]) {
				t.Fatalf("range %d: record %d mutated by the digest round trip", ri, j)
			}
			return merger.Add(kr.lo+j, rec)
		})
		if err != nil {
			t.Fatalf("range %d: decoding digest: %v", ri, err)
		}
	}
	// CheckMergedContext's Finish refuses a merger missing any record.
	merged, err := core.CheckMergedContext(t.Context(), merger)
	if err != nil {
		t.Fatalf("checking merged polygraph: %v", err)
	}
	single := core.CheckHistory(h, opts)
	if merged.Outcome != single.Outcome ||
		merged.Nodes != single.Nodes ||
		merged.KnownEdges != single.KnownEdges ||
		merged.Constraints != single.Constraints {
		t.Fatalf("merged verdict (%v n=%d e=%d c=%d) differs from single-node (%v n=%d e=%d c=%d)",
			merged.Outcome, merged.Nodes, merged.KnownEdges, merged.Constraints,
			single.Outcome, single.Nodes, single.KnownEdges, single.Constraints)
	}
}

// FuzzWireRoundTrip: for arbitrary generated histories, encode→decode→
// record→digest→merge must reproduce the single-node records and
// verdict exactly. This is the codec's soundness property — a wire bug
// must never be able to flip a verdict.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(40, 5, int64(1), 2)
	f.Add(120, 9, int64(7), 3)
	f.Add(200, 3, int64(11), 5)
	f.Add(2, 1, int64(0), 1)
	f.Fuzz(func(t *testing.T, txns, keys int, seed int64, shards int) {
		if shards < 1 {
			shards = 1
		}
		if shards > 8 {
			shards = shards%8 + 1
		}
		h := wireHistory(txns, keys, seed)
		for _, level := range []core.Level{core.AdyaSI, core.StrongSessionSI} {
			roundTripShards(t, h, core.Options{Level: level, Parallelism: 1}, shards)
		}
	})
}

// FuzzDigestDecode throws arbitrary bytes at the digest decoder: it
// must error or succeed, never panic or spin — the coordinator feeds it
// network input.
func FuzzDigestDecode(f *testing.F) {
	h := wireHistory(40, 5, 1)
	recs := core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1}, h.Keys())
	var buf bytes.Buffer
	enc := newDigestEncoder(&buf, "w")
	for i := range recs {
		if err := enc.record(&recs[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("VWD1"))
	f.Add([]byte{})
	keys := h.Keys()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeDigest(bufio.NewReader(bytes.NewReader(data)), keys,
			func(int, core.KeyShardRecord) error { return nil })
	})
}

// FuzzShardJobDecode: same robustness property for the job decoder,
// which workers run on coordinator-supplied input.
func FuzzShardJobDecode(f *testing.F) {
	h := wireHistory(40, 5, 1)
	ranges := partitionKeys(h, 2, 0)
	for _, kr := range ranges {
		var buf bytes.Buffer
		if err := encodeShardJob(&buf, h, kr, core.Options{Level: core.AdyaSI}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("VWS1"))
	// A job body of the retired JSON wire: a shard header line, then a
	// histio stream of the slice.
	var legacy bytes.Buffer
	fmt.Fprintf(&legacy, "{\"level\":%q,\"keys\":%d}\n", core.AdyaSI.String(), len(h.Keys()))
	if err := histio.Encode(&legacy, h); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = decodeShardJob(bufio.NewReader(bytes.NewReader(data)))
	})
}

// TestWireDecodeTruncation: every strict prefix of a valid digest is an
// error, never a silently short record set.
func TestWireDecodeTruncation(t *testing.T) {
	h := wireHistory(60, 4, 3)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	recs := core.BuildShardRecords(h, opts, h.Keys())
	var buf bytes.Buffer
	enc := newDigestEncoder(&buf, "w")
	for i := range recs {
		if err := enc.record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{0, 1, 4, len(whole) / 2, len(whole) - 1} {
		n := 0
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(whole[:cut])), h.Keys(),
			func(int, core.KeyShardRecord) error { n++; return nil })
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly (%d records)", cut, len(whole), n)
		}
	}

	var jobBuf bytes.Buffer
	kr := keyRange{lo: 0, hi: len(h.Keys())}
	if err := encodeShardJob(&jobBuf, h, kr, opts); err != nil {
		t.Fatal(err)
	}
	job := jobBuf.Bytes()
	for _, cut := range []int{0, 3, len(job) / 3, len(job) - 1} {
		if _, _, _, err := decodeShardJob(bufio.NewReader(bytes.NewReader(job[:cut]))); err == nil {
			t.Fatalf("job truncation at %d/%d bytes decoded cleanly", cut, len(job))
		}
	}
}

// TestWireSmallerThanJSON pins the point of the codec: the binary job
// and digest are meaningfully smaller than their JSON/histio
// equivalents for a representative history.
func TestWireSmallerThanJSON(t *testing.T) {
	h := wireHistory(300, 12, 9)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	kr := keyRange{lo: 0, hi: len(h.Keys())}

	var bin bytes.Buffer
	if err := encodeShardJob(&bin, h, kr, opts); err != nil {
		t.Fatal(err)
	}
	slice, _, err := sliceHistory(h, kr)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := histio.Encode(&jsonBuf, slice); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*2 > jsonBuf.Len() {
		t.Fatalf("binary job %dB not ≤ half of JSON job %dB", bin.Len(), jsonBuf.Len())
	}

	recs := core.BuildShardRecords(h, opts, h.Keys())
	var dig bytes.Buffer
	enc := newDigestEncoder(&dig, "w")
	for i := range recs {
		if err := enc.record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.close(); err != nil {
		t.Fatal(err)
	}
	// The JSON reference is the digest shape of the retired JSON wire.
	jsonDig, err := json.Marshal(struct {
		Node    string                `json:"node"`
		Records []core.KeyShardRecord `json:"records"`
	}{Node: "w", Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if dig.Len()*2 > len(jsonDig) {
		t.Fatalf("binary digest %dB not ≤ half of JSON digest %dB", dig.Len(), len(jsonDig))
	}
}

// BenchmarkShardDigestEncode is the codec hot loop: allocations here
// multiply by every key of every shard of every check. The sync.Pool
// scratch buffers should hold steady-state allocs/op near zero.
func BenchmarkShardDigestEncode(b *testing.B) {
	h := wireHistory(300, 12, 9)
	recs := core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1}, h.Keys())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := newDigestEncoder(io.Discard, "w")
		for j := range recs {
			if err := enc.record(&recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDigestEncodeAllocs guards the pool: encoding a whole digest must
// cost a handful of allocations total (encoder struct + pooled-buffer
// warmup), not per-record garbage.
func TestDigestEncodeAllocs(t *testing.T) {
	h := wireHistory(300, 12, 9)
	recs := core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1}, h.Keys())
	avg := testing.AllocsPerRun(20, func() {
		enc := newDigestEncoder(io.Discard, "w")
		for j := range recs {
			if err := enc.record(&recs[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("digest encode costs %.1f allocs per shard (want ≤ 8: pooled buffers defeated?)", avg)
	}
}
