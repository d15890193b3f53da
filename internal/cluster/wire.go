// Binary wire format for sharded checking: the length-prefixed varint
// codec of the POST /cluster/shard round trip, the only shard wire.
//
// Two message types travel between coordinator and worker:
//
//   - Shard job (coordinator → worker, "VWS1"): the key-sliced history.
//     The shard's key table leads; operations then reference keys by
//     varint table index instead of repeating key strings, and write
//     ids / observed ids / timestamps are zigzag-varint deltas against
//     a running previous value (collectors assign write ids roughly
//     monotonically, so deltas are small).
//
//   - Shard digest (worker → coordinator, "VWD1"): the core.KeyRecord
//     of every shard key, as core.BuildShardRecordsOrdered emits them.
//     Records travel framed, one per key in shard key order with key
//     strings omitted (the request's key table is the implicit order),
//     so the coordinator files each record as it arrives. An edge run
//     is its node id count, then the ids: every edge's from and to
//     node, as zigzag-varint deltas against a per-record running
//     previous value (emission order visits transactions roughly in id
//     order, so consecutive ids are near each other and most deltas fit
//     one byte). The decoder rebuilds each record in the recording
//     pass's own shape.
//
// There is no negotiation: the coordinator labels every job with
// shardContentTypeV1, and a worker answers any other Content-Type with
// 415. A refused job, a digest that is not digestContentTypeV1, and a
// digest that fails to decode (an odd node id count, a known-edge op
// without exactly one edge, a node id outside the history, a self-loop)
// are failed dispatches like any other: the shard moves to the next
// worker, then to local recording on the coordinator.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"viper/internal/core"
	"viper/internal/history"
)

// shardContentTypeV1 / digestContentTypeV1 label the job and digest
// bodies.
const (
	shardContentTypeV1  = "application/x-viper-shard-v1"
	digestContentTypeV1 = "application/x-viper-digest-v1"
)

var (
	shardMagic  = [4]byte{'V', 'W', 'S', '1'}
	digestMagic = [4]byte{'V', 'W', 'D', '1'}
)

// Decode-side sanity caps: a malformed or hostile stream must not make
// us allocate unbounded memory before the structural checks run.
const (
	maxWireStr   = 1 << 16 // keys and level names
	maxWireCount = 1 << 28 // txn/op/edge counts
)

// digest frame markers.
const (
	digestFrameRecord = 0x01
	digestFrameEnd    = 0x00
)

// ---- encoder ----

// wireBufPool recycles encoder scratch buffers across dispatches: a
// coordinator slicing a big history fans out many jobs back to back,
// and a worker streams a digest per job. 64 KiB holds several thousand
// encoded ops between flushes.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// wireEnc appends varint-encoded fields to a pooled scratch buffer and
// flushes it to the underlying writer as it fills. Errors are sticky.
type wireEnc struct {
	w   io.Writer
	buf *[]byte
	err error
}

func newWireEnc(w io.Writer) *wireEnc {
	return &wireEnc{w: w, buf: wireBufPool.Get().(*[]byte)}
}

// release flushes and returns the scratch buffer to the pool.
func (e *wireEnc) release() error {
	e.flush()
	*e.buf = (*e.buf)[:0]
	wireBufPool.Put(e.buf)
	e.buf = nil
	return e.err
}

func (e *wireEnc) flush() {
	if e.err == nil && len(*e.buf) > 0 {
		_, e.err = e.w.Write(*e.buf)
	}
	*e.buf = (*e.buf)[:0]
}

func (e *wireEnc) maybeFlush() {
	if len(*e.buf) >= 32<<10 {
		e.flush()
	}
}

func (e *wireEnc) raw(p []byte) {
	*e.buf = append(*e.buf, p...)
	e.maybeFlush()
}

func (e *wireEnc) byte1(b byte) {
	*e.buf = append(*e.buf, b)
	e.maybeFlush()
}

func (e *wireEnc) uvarint(v uint64) {
	*e.buf = binary.AppendUvarint(*e.buf, v)
	e.maybeFlush()
}

// svarint zigzag-encodes a signed value.
func (e *wireEnc) svarint(v int64) {
	*e.buf = binary.AppendVarint(*e.buf, v)
	e.maybeFlush()
}

func (e *wireEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	*e.buf = append(*e.buf, s...)
	e.maybeFlush()
}

// ---- decoder ----

// wireDec reads varint fields from a buffered reader. Errors are
// sticky: after the first failure every read returns the zero value.
type wireDec struct {
	r   *bufio.Reader
	err error
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *wireDec) byte1() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	return b
}

func (d *wireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

func (d *wireDec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

// count reads a uvarint and enforces the sanity cap.
func (d *wireDec) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > maxWireCount {
		d.fail("wire: %s count %d exceeds cap", what, v)
	}
	return int(v)
}

func (d *wireDec) str(what string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxWireStr {
		d.fail("wire: %s length %d exceeds cap", what, n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

func (d *wireDec) magic(want [4]byte) {
	var got [4]byte
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, got[:]); err != nil {
		d.err = err
		return
	}
	if got != want {
		d.fail("wire: bad magic %q, want %q", got[:], want[:])
	}
}

// ---- shard job codec ----

// encodeShardJob writes the binary shard job for h.Keys()[kr.lo:kr.hi]
// straight from the full history — no intermediate slice History is
// built; filtering happens as the ops stream out, so encode overlaps
// with whatever is consuming w (an HTTP request body in flight).
// The decoded job is identical to the reference slice of filter_test.go
// (pinned by TestSliceRecordsEqualFull).
func encodeShardJob(w io.Writer, h *history.History, kr keyRange, opts core.Options) error {
	keys := h.Keys()[kr.lo:kr.hi]
	if len(keys) == 0 {
		return fmt.Errorf("wire: empty key range")
	}
	inShard := func(k history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		return i < len(keys) && keys[i] == k
	}
	keyIdx := func(k history.Key) int {
		return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	}
	intersects := func(lo, hi history.Key) bool {
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
		return i < len(keys) && keys[i] <= hi
	}

	e := newWireEnc(w)
	e.raw(shardMagic[:])
	var flags byte
	if opts.DisableCombineWrites {
		flags |= 1
	}
	if opts.DisableCoalesce {
		flags |= 2
	}
	e.byte1(flags)
	e.uvarint(uint64(opts.Parallelism))
	e.str(opts.Level.String())
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(string(k))
	}

	e.uvarint(uint64(len(h.Txns) - 1))
	var prevBegin, lastWID, lastObs int64
	for _, t := range h.Txns[1:] {
		e.uvarint(uint64(t.Session))
		e.uvarint(uint64(t.SeqInSession))
		e.svarint(t.BeginAt - prevBegin)
		e.svarint(t.CommitAt - t.BeginAt)
		prevBegin = t.BeginAt
		e.byte1(byte(t.Status))

		nops := 0
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind == history.OpRange {
				if intersects(op.Lo, op.Hi) {
					nops++
				}
			} else if inShard(op.Key) {
				nops++
			}
		}
		e.uvarint(uint64(nops))
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case history.OpRead:
				if !inShard(op.Key) {
					continue
				}
				e.byte1(byte(op.Kind))
				e.uvarint(uint64(keyIdx(op.Key)))
				e.svarint(int64(op.Observed) - lastObs)
				lastObs = int64(op.Observed)
				e.byte1(boolByte(op.ObservedTombstone))
			case history.OpWrite, history.OpInsert, history.OpDelete:
				if !inShard(op.Key) {
					continue
				}
				e.byte1(byte(op.Kind))
				e.uvarint(uint64(keyIdx(op.Key)))
				e.svarint(int64(op.WriteID) - lastWID)
				lastWID = int64(op.WriteID)
			case history.OpRange:
				if !intersects(op.Lo, op.Hi) {
					continue
				}
				e.byte1(byte(op.Kind))
				e.str(string(op.Lo))
				e.str(string(op.Hi))
				nres := 0
				for _, v := range op.Result {
					if inShard(v.Key) {
						nres++
					}
				}
				e.uvarint(uint64(nres))
				for _, v := range op.Result {
					if !inShard(v.Key) {
						continue
					}
					e.uvarint(uint64(keyIdx(v.Key)))
					e.svarint(int64(v.WriteID) - lastObs)
					lastObs = int64(v.WriteID)
					e.byte1(boolByte(v.Tombstone))
				}
			}
		}
	}
	return e.release()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeShardJob reads a binary shard job: the recording options, the
// shard key table, and the validated sliced history. The caller should
// verify h.Keys() of the result equals the returned key table (it does
// unless the coordinator mis-sliced).
func decodeShardJob(r *bufio.Reader) (core.Options, *history.History, []history.Key, error) {
	var opts core.Options
	d := &wireDec{r: r}
	d.magic(shardMagic)
	flags := d.byte1()
	opts.DisableCombineWrites = flags&1 != 0
	opts.DisableCoalesce = flags&2 != 0
	opts.Parallelism = d.count("parallelism")
	levelName := d.str("level")
	if d.err == nil {
		lvl, ok := core.ParseLevel(levelName)
		if !ok {
			d.fail("wire: unknown isolation level %q", levelName)
		} else {
			opts.Level = lvl
		}
	}

	nkeys := d.count("key")
	keys := make([]history.Key, 0, min(nkeys, 1<<16))
	for i := 0; i < nkeys && d.err == nil; i++ {
		keys = append(keys, history.Key(d.str("key")))
	}

	h := history.New()
	ntxns := d.count("txn")
	var prevBegin, lastWID, lastObs int64
	for ti := 0; ti < ntxns && d.err == nil; ti++ {
		t := &history.Txn{
			Session:      int32(d.uvarint()),
			SeqInSession: int32(d.uvarint()),
		}
		t.BeginAt = prevBegin + d.svarint()
		t.CommitAt = t.BeginAt + d.svarint()
		prevBegin = t.BeginAt
		t.Status = history.Status(d.byte1())
		nops := d.count("op")
		for oi := 0; oi < nops && d.err == nil; oi++ {
			var op history.Op
			op.Kind = history.OpKind(d.byte1())
			switch op.Kind {
			case history.OpRead:
				op.Key = d.key(keys)
				lastObs += d.svarint()
				op.Observed = history.WriteID(lastObs)
				op.ObservedTombstone = d.byte1() != 0
			case history.OpWrite, history.OpInsert, history.OpDelete:
				op.Key = d.key(keys)
				lastWID += d.svarint()
				op.WriteID = history.WriteID(lastWID)
			case history.OpRange:
				op.Lo = history.Key(d.str("range lo"))
				op.Hi = history.Key(d.str("range hi"))
				nres := d.count("range result")
				for ri := 0; ri < nres && d.err == nil; ri++ {
					var v history.Version
					v.Key = d.key(keys)
					lastObs += d.svarint()
					v.WriteID = history.WriteID(lastObs)
					v.Tombstone = d.byte1() != 0
					op.Result = append(op.Result, v)
				}
			default:
				d.fail("wire: unknown op kind %d", op.Kind)
			}
			t.Ops = append(t.Ops, op)
		}
		if d.err == nil {
			h.Append(t)
		}
	}
	if d.err != nil {
		return opts, nil, nil, d.err
	}
	if err := h.Validate(); err != nil {
		return opts, nil, nil, fmt.Errorf("wire: decoded slice failed validation: %w", err)
	}
	return opts, h, keys, nil
}

// key reads a key-table index and resolves it.
func (d *wireDec) key(keys []history.Key) history.Key {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(keys)) {
		d.fail("wire: key index %d out of range (%d keys)", i, len(keys))
		return ""
	}
	return keys[i]
}

// ---- shard digest codec ----

// digestEncoder streams a worker's digest: magic + node name, then one
// frame per key record in shard key order, then an end frame with the
// record count. BytesBuffered/Flush let the HTTP handler pace
// http.Flusher flushes so the coordinator sees records early.
type digestEncoder struct {
	e *wireEnc
	n int
}

func newDigestEncoder(w io.Writer, node string) *digestEncoder {
	e := newWireEnc(w)
	e.raw(digestMagic[:])
	e.str(node)
	return &digestEncoder{e: e}
}

// record encodes one key record frame. Node ids (every From/To) share a
// single per-record delta chain in emission order; each edge run is
// prefixed with its node id count (twice its edge count). An op's flags
// byte has one bit: 1 for a constraint.
func (d *digestEncoder) record(rec *core.KeyRecord) error {
	e := d.e
	e.byte1(digestFrameRecord)
	var prev int64
	edge := func(x core.Edge) {
		e.svarint(int64(x.From) - prev)
		e.svarint(int64(x.To) - int64(x.From))
		prev = int64(x.To)
	}
	run := func(es []core.Edge) {
		e.uvarint(uint64(2 * len(es)))
		for _, x := range es {
			edge(x)
		}
	}
	run(rec.WR)
	e.uvarint(uint64(len(rec.Ops)))
	for i := range rec.Ops {
		op := &rec.Ops[i]
		var flags byte
		if op.Cons {
			flags |= 1
		}
		e.byte1(flags)
		e.byte1(byte(op.Kind))
		if !op.Cons {
			e.uvarint(2)
			edge(op.Edge)
			continue
		}
		e.byte1(byte(op.Kind2))
		run(op.First)
		run(op.Second)
	}
	d.n++
	return e.err
}

// close writes the end frame and flushes. The record count in the
// trailer lets the decoder distinguish a clean end from a truncated
// stream.
func (d *digestEncoder) close() error {
	d.e.byte1(digestFrameEnd)
	d.e.uvarint(uint64(d.n))
	return d.e.release()
}

// flush drains the scratch buffer to the underlying writer (before an
// http.Flusher flush).
func (d *digestEncoder) flush() error {
	d.e.flush()
	return d.e.err
}

// buffered reports the bytes sitting in the scratch buffer.
func (d *digestEncoder) buffered() int { return len(*d.e.buf) }

// decodeDigest reads a digest stream, handing record i (of key keys[i])
// to onRecord as soon as its frame is complete, so the coordinator files
// records while the worker is still recording later keys. nodes is the
// history's node layout (core.NodeCount). Returns the recording node's
// name.
func decodeDigest(r *bufio.Reader, keys []history.Key, nodes int32, onRecord func(i int, rec *core.KeyRecord) error) (string, error) {
	d := &wireDec{r: r}
	d.magic(digestMagic)
	node := d.str("node")
	n := 0
	var scratch []core.Edge
	for d.err == nil {
		switch frame := d.byte1(); frame {
		case digestFrameEnd:
			if got := d.count("record trailer"); d.err == nil && got != n {
				d.fail("wire: digest trailer says %d records, stream had %d", got, n)
			}
			if d.err == nil && n != len(keys) {
				d.fail("wire: digest has %d records for %d keys", n, len(keys))
			}
			return node, d.err
		case digestFrameRecord:
			if n >= len(keys) {
				d.fail("wire: digest has more records than the shard's %d keys", len(keys))
				continue
			}
			rec := d.readRecord(nodes, &scratch)
			if d.err != nil {
				continue
			}
			if err := onRecord(n, rec); err != nil {
				return node, err
			}
			n++
		default:
			d.fail("wire: unknown digest frame 0x%02x", frame)
		}
	}
	return node, d.err
}

// readRecord decodes one record frame into the shape the recording pass
// gives it: every constraint side a capacity-capped view, in emission
// order, of one exact slab (rec.Sides), and empty runs nil. Sides decode
// into scratch first, since a frame does not announce their total. What
// recording never emits is a decode error: an op flags byte with a bit
// other than the constraint bit, an edge run with an odd node id count, a
// known-edge op that does not carry exactly one edge, and an edge that is
// a self-loop or leaves the node ids [0, nodes) — the replay would index
// past the polygraph's nodes.
func (d *wireDec) readRecord(nodes int32, scratch *[]core.Edge) *core.KeyRecord {
	rec := &core.KeyRecord{}
	var prev int64
	edge := func() core.Edge {
		from := prev + d.svarint()
		prev = from + d.svarint()
		if d.err == nil && (from == prev || uint64(from) >= uint64(nodes) || uint64(prev) >= uint64(nodes)) {
			d.fail("wire: edge %d→%d is not an edge of a history with %d nodes", from, prev, nodes)
		}
		return core.Edge{From: int32(from), To: int32(prev)}
	}
	// run reads an edge run's node id count and returns its edge count.
	run := func(what string) int {
		n := d.count(what)
		if d.err == nil && n%2 != 0 {
			d.fail("wire: %s has an odd node id count %d", what, n)
		}
		return n / 2
	}
	if n := run("wr edge"); n > 0 {
		rec.WR = make([]core.Edge, 0, min(n, 1<<16))
		for i := 0; i < n && d.err == nil; i++ {
			rec.WR = append(rec.WR, edge())
		}
	}
	nops := d.count("digest op")
	if d.err != nil || nops == 0 {
		return rec
	}
	rec.Ops = make([]core.KeyOp, 0, min(nops, 1<<16))
	sides := (*scratch)[:0]
	// side appends one constraint side to scratch; its length is all the
	// op keeps until the slab is cut.
	side := func(what string) []core.Edge {
		a := len(sides)
		for n, i := run(what), 0; i < n && d.err == nil; i++ {
			sides = append(sides, edge())
		}
		return sides[a:]
	}
	for i := 0; i < nops && d.err == nil; i++ {
		flags := d.byte1()
		if d.err == nil && flags&^1 != 0 {
			d.fail("wire: op flags 0x%02x carry bits recording never sets", flags)
		}
		op := core.KeyOp{Cons: flags&1 != 0, Kind: core.EdgeKind(d.byte1())}
		if !op.Cons {
			if n := run("edge"); d.err == nil && n != 1 {
				d.fail("wire: known-edge op carries %d edges, want 1", n)
			}
			op.Edge = edge()
		} else {
			op.Kind2 = core.EdgeKind(d.byte1())
			op.First = side("first side")
			op.Second = side("second side")
		}
		rec.Ops = append(rec.Ops, op)
	}
	*scratch = sides
	if d.err != nil {
		return rec
	}
	if len(sides) > 0 {
		rec.Sides = append([]core.Edge(nil), sides...)
	}
	off := 0
	view := func(n int) []core.Edge {
		if n == 0 {
			return nil
		}
		off += n
		return rec.Sides[off-n : off : off]
	}
	for j := range rec.Ops {
		if op := &rec.Ops[j]; op.Cons {
			op.First = view(len(op.First))
			op.Second = view(len(op.Second))
		}
	}
	return rec
}

// ---- byte accounting ----

// countingWriter / countingReader meter bytes on the wire for the
// report's cluster section and the viperd_cluster_wire_bytes metrics.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
