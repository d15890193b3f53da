package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
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
// pass, and the merged polygraph's verdict and counts must match
// CheckHistory's: h carries usable stamps, so the single node's window
// holds every pair, as the merge does.
func roundTripShards(t testing.TB, h *history.History, opts core.Options, shards int) {
	merged := mergeShards(t, h, opts, shards)
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

// TestRoundTripShardsUnstamped: on unstamped input the single node takes
// the window at its first §3.5 radius, while the merge checks every
// writer pair, so only the verdict, anomaly, node count and known edges
// agree; the merge holds Build's constraints, the single node far fewer.
func TestRoundTripShardsUnstamped(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 400, Keys: 9, MaxConcurrency: 6, AbortEvery: 7, Seed: 7})
	for _, tx := range h.Txns[1:] {
		tx.BeginAt, tx.CommitAt = 0, 0
	}
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	merged := mergeShards(t, h, opts, 3)
	single := core.CheckHistory(h, opts)
	if merged.Outcome != single.Outcome || merged.Anomaly != single.Anomaly ||
		merged.Nodes != single.Nodes || merged.KnownEdges != single.KnownEdges {
		t.Fatalf("merged (%v %q n=%d e=%d) differs from single-node (%v %q n=%d e=%d)",
			merged.Outcome, merged.Anomaly, merged.Nodes, merged.KnownEdges,
			single.Outcome, single.Anomaly, single.Nodes, single.KnownEdges)
	}
	if full := len(core.Build(h, opts).Cons); merged.Constraints != full || single.Constraints >= full {
		t.Fatalf("merged %d constraints, single-node window %d, Build %d: want the merge to hold Build's, the window fewer",
			merged.Constraints, single.Constraints, full)
	}
}

// mergeShards is roundTripShards' codec round trip: it returns the
// merged polygraph's report.
func mergeShards(t testing.TB, h *history.History, opts core.Options, shards int) *core.Report {
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

		_, err = decodeDigest(bufio.NewReader(bytes.NewReader(encodeDigest("w", recs))), dkeys, core.NodeCount(h, opts.Level), func(j int, rec *core.KeyRecord) error {
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
	return merged
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
// network input. A digest that decodes and merges must check without
// panicking, too.
func FuzzDigestDecode(f *testing.F) {
	h := wireHistory(40, 5, 1)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	f.Add(encodeDigest("w", core.BuildShardRecords(h, opts, h.Keys())))
	f.Add([]byte("VWD1"))
	f.Add([]byte{})
	keys, nodes := h.Keys(), core.NodeCount(h, opts.Level)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := core.NewShardMerger(h, opts)
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(data)), keys, nodes, func(i int, rec *core.KeyRecord) error {
			return m.Add(i, rec)
		})
		if err == nil {
			_, _ = core.CheckMergedContext(t.Context(), m)
		}
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
	whole := encodeDigest("w", core.BuildShardRecords(h, opts, h.Keys()))
	for _, cut := range []int{0, 1, 4, len(whole) / 2, len(whole) - 1} {
		n := 0
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(whole[:cut])), h.Keys(), core.NodeCount(h, opts.Level),
			func(int, *core.KeyRecord) error { n++; return nil })
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
	dig := encodeDigest("w", recs)
	// The JSON reference is the digest shape of the retired JSON wire.
	jsonDig, err := json.Marshal(struct {
		Node    string       `json:"node"`
		Records []flatRecord `json:"records"`
	}{Node: "w", Records: flatRecords(h.Keys(), recs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(dig)*2 > len(jsonDig) {
		t.Fatalf("binary digest %dB not ≤ half of JSON digest %dB", len(dig), len(jsonDig))
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
		for _, rec := range recs {
			if err := enc.record(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardDigestDecode is the coordinator's half of the codec: one
// shard's digest decoded and every record added to a fresh merger.
func BenchmarkShardDigestDecode(b *testing.B) {
	h := wireHistory(300, 12, 9)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	dig := encodeDigest("w", core.BuildShardRecords(h, opts, h.Keys()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewShardMerger(h, opts)
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(dig)), h.Keys(), core.NodeCount(h, opts.Level), func(j int, rec *core.KeyRecord) error {
			return m.Add(j, rec)
		})
		if err != nil {
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
		for _, rec := range recs {
			if err := enc.record(rec); err != nil {
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

// encodeDigest frames recs as one worker's digest. Writes to a
// bytes.Buffer cannot fail.
func encodeDigest(node string, recs []*core.KeyRecord) []byte {
	var b bytes.Buffer
	enc := newDigestEncoder(&b, node)
	for _, rec := range recs {
		_ = enc.record(rec)
	}
	_ = enc.close()
	return b.Bytes()
}

// flatOp and flatRecord are a record in the digest shape of the retired
// JSON wire: node ids as flat from,to runs of any length, under short
// tags. TestWireSmallerThanJSON sizes against it, and writeFlat frames
// it for corruptions the encoder cannot produce.
type flatOp struct {
	Cons   bool    `json:"c,omitempty"`
	Edge   []int32 `json:"e,omitempty"`
	Kind   uint8   `json:"k,omitempty"`
	First  []int32 `json:"f,omitempty"`
	Second []int32 `json:"s,omitempty"`
	Kind2  uint8   `json:"k2,omitempty"`
	// Flags holds extra op flag bits for writeFlat to set: bits the
	// encoder never sets.
	Flags byte `json:"-"`
}

type flatRecord struct {
	Key string   `json:"key"`
	WR  []int32  `json:"wr,omitempty"`
	Ops []flatOp `json:"ops,omitempty"`
}

func flatten(es ...core.Edge) []int32 {
	var out []int32
	for _, e := range es {
		out = append(out, e.From, e.To)
	}
	return out
}

// flatRecords flattens recs, the records of keys.
func flatRecords(keys []history.Key, recs []*core.KeyRecord) []flatRecord {
	out := make([]flatRecord, len(recs))
	for i, rec := range recs {
		out[i] = flatRecord{Key: string(keys[i]), WR: flatten(rec.WR...)}
		for _, op := range rec.Ops {
			fo := flatOp{Cons: op.Cons, Kind: uint8(op.Kind)}
			if !op.Cons {
				fo.Edge = flatten(op.Edge)
			} else {
				fo.First, fo.Second = flatten(op.First...), flatten(op.Second...)
				fo.Kind2 = uint8(op.Kind2)
			}
			out[i].Ops = append(out[i].Ops, fo)
		}
	}
	return out
}

// writeFlat frames recs as a digest, laid out as digestEncoder lays out
// a KeyRecord but from runs of any length.
func writeFlat(recs []flatRecord) []byte {
	var b bytes.Buffer
	e := newWireEnc(&b)
	e.raw(digestMagic[:])
	e.str("w")
	for _, rec := range recs {
		e.byte1(digestFrameRecord)
		var prev int64
		delta := func(v int32) {
			e.svarint(int64(v) - prev)
			prev = int64(v)
		}
		run := func(vs []int32) {
			e.uvarint(uint64(len(vs)))
			for _, v := range vs {
				delta(v)
			}
		}
		run(rec.WR)
		e.uvarint(uint64(len(rec.Ops)))
		for _, op := range rec.Ops {
			flags := op.Flags
			if op.Cons {
				flags |= 1
			}
			e.byte1(flags)
			e.byte1(op.Kind)
			if !op.Cons {
				run(op.Edge)
				continue
			}
			e.byte1(op.Kind2)
			run(op.First)
			run(op.Second)
		}
	}
	e.byte1(digestFrameEnd)
	e.uvarint(uint64(len(recs)))
	_ = e.release()
	return b.Bytes()
}

// TestDigestCorruptionRefused: a digest naming a node outside the
// history or a self-loop, a known-edge op that does not carry exactly
// one edge, a constraint side with an odd node id count, and an op flags
// byte with a bit other than the constraint bit are decode errors, so
// none reaches the merger or CheckMergedContext; the coordinator moves
// such a shard on like any failed dispatch.
func TestDigestCorruptionRefused(t *testing.T) {
	h := wireHistory(40, 5, 1)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	recs := core.BuildShardRecords(h, opts, h.Keys())
	if !bytes.Equal(writeFlat(flatRecords(h.Keys(), recs)), encodeDigest("w", recs)) {
		t.Fatal("the flat framing disagrees with digestEncoder")
	}
	// find returns the first op satisfying ok, as record and op indexes.
	find := func(ok func(op *flatOp) bool) (int, int) {
		for i, rec := range flatRecords(h.Keys(), recs) {
			for j := range rec.Ops {
				if ok(&rec.Ops[j]) {
					return i, j
				}
			}
		}
		t.Fatal("no op to corrupt")
		return 0, 0
	}
	ki, kj := find(func(op *flatOp) bool { return !op.Cons })
	ci, cj := find(func(op *flatOp) bool { return op.Cons && len(op.First) > 0 })
	wi := slices.IndexFunc(recs, func(rec *core.KeyRecord) bool { return len(rec.WR) > 0 })
	for _, tc := range []struct {
		name    string
		corrupt func(fs []flatRecord)
	}{
		{"read dependency into node 1<<20", func(fs []flatRecord) { fs[wi].WR[1] = 1 << 20 }},
		{"self-loop read dependency", func(fs []flatRecord) { fs[wi].WR[1] = fs[wi].WR[0] }},
		{"known edge with two edges", func(fs []flatRecord) {
			op := &fs[ki].Ops[kj]
			op.Edge = append(op.Edge, op.Edge...)
		}},
		{"known edge with no edge", func(fs []flatRecord) { fs[ki].Ops[kj].Edge = nil }},
		{"odd side", func(fs []flatRecord) {
			op := &fs[ci].Ops[cj]
			op.First = op.First[:len(op.First)-1]
		}},
		{"constraint with a retired flag bit", func(fs []flatRecord) { fs[ci].Ops[cj].Flags = 8 }},
		{"known edge with a retired flag bit", func(fs []flatRecord) { fs[ki].Ops[kj].Flags = 2 }},
	} {
		fs := flatRecords(h.Keys(), recs)
		tc.corrupt(fs)
		m := core.NewShardMerger(h, opts)
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(writeFlat(fs))), h.Keys(), core.NodeCount(h, opts.Level), func(i int, rec *core.KeyRecord) error {
			return m.Add(i, rec)
		})
		if err == nil {
			t.Errorf("%s: corrupted digest decoded and merged", tc.name)
		}
	}
}
