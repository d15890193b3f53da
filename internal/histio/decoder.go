package histio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"viper/internal/history"
)

// DecodeError is a position-annotated decoding failure: the 1-based line
// of the stream it occurred on, the 0-based transaction record index
// (HeaderRecord for the header line), and — when the failure is inside a
// specific operation — the op's index and kind.
type DecodeError struct {
	Line   int    // 1-based line number
	Record int    // 0-based txn record, or HeaderRecord
	Op     int    // 0-based op index within the record, or -1
	Kind   string // op kind ("r", "w", "q", ...) when Op >= 0
	Err    error
}

// HeaderRecord is the DecodeError.Record value for header-line failures.
const HeaderRecord = -1

func (e *DecodeError) Error() string { return e.Detail().String() }

// Detail renders the error as its structured, surface-independent form
// (see ErrorDetail).
func (e *DecodeError) Detail() ErrorDetail {
	return ErrorDetail{Line: e.Line, Record: e.Record, Op: e.Op, Kind: e.Kind, Reason: e.Err.Error()}
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Decoder reads a history log incrementally from an io.Reader: one
// transaction per Next call, without materializing the whole history.
// This is the streaming half of the online checker — a session feeds
// decoded transactions straight into a viper.Checker as they appear.
//
// Next returns io.EOF at the end of the stream. In tail mode (SetTail) a
// partial final line — a record whose trailing newline has not been
// written yet — is buffered rather than decoded, and Next returns io.EOF
// until the line completes; callers are expected to poll Next again as
// the underlying stream grows, as `viper -follow` does. Outside tail
// mode the stream is assumed complete: a final unterminated line is
// decoded as-is and the header's declared transaction count is enforced
// at EOF.
//
// Each record line goes first to a reflection-free scanner that decodes
// the spellings Encode writes; any line it declines, including every
// malformed one, is decoded by encoding/json, which alone reports record
// errors. The two agree on every line the scanner takes, so the input
// alone picks the path.
type Decoder struct {
	br        *bufio.Reader
	sc        scanner
	line      int // lines fully consumed
	rec       int // txn records successfully decoded
	declared  int // header's txn count
	gotHeader bool
	tail      bool
	partial   []byte // the start of a line that spans reads (see nextLine)
	sticky    error  // terminal decode error, returned forever after
}

// readBufSize is the decoder's read buffer: lines up to this long are
// decoded in place, longer ones are gathered into a copy.
const readBufSize = 1 << 20

// NewDecoder returns a streaming decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, readBufSize)}
}

// SetTail toggles tail mode (see type docs); set it before the first Next.
func (d *Decoder) SetTail(tail bool) { d.tail = tail }

// Line returns the number of stream lines fully consumed so far.
func (d *Decoder) Line() int { return d.line }

// Decoded returns the number of transaction records decoded so far.
func (d *Decoder) Decoded() int { return d.rec }

// Declared returns the header's transaction count, or -1 before the
// header has been read.
func (d *Decoder) Declared() int {
	if !d.gotHeader {
		return -1
	}
	return d.declared
}

// nextLine returns the next non-blank line, not including the newline.
// The line aliases the read buffer (or d.partial) and is valid until the
// next call. It returns io.EOF when the stream is exhausted; in tail mode
// an unterminated final line is buffered for a later retry instead of
// being returned.
func (d *Decoder) nextLine() ([]byte, error) {
	for {
		chunk, err := d.br.ReadSlice('\n')
		if err != nil {
			// The line spans the read buffer, or its end has not been
			// read yet: keep what we have, since the next read reuses
			// the buffer.
			d.partial = append(d.partial, chunk...)
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF && len(d.partial) > 0 && !d.tail {
				// Complete stream with no final newline: take the tail line.
				line := d.partial
				d.partial = nil
				d.line++
				return line, nil
			}
			return nil, err // io.EOF (possibly with a buffered partial) or a read error
		}
		line := chunk[:len(chunk)-1]
		if d.partial != nil {
			line = append(d.partial, line...)
			d.partial = nil
		}
		d.line++
		if len(bytes.TrimSpace(line)) > 0 {
			return line, nil
		}
	}
}

// Next decodes and returns the next transaction of the stream. The first
// call consumes the header line. Decode errors are *DecodeError values
// and are terminal: every later call returns the same error.
func (d *Decoder) Next() (*history.Txn, error) {
	if d.sticky != nil {
		return nil, d.sticky
	}
	t, err := d.next()
	if err != nil && err != io.EOF {
		d.sticky = err
	}
	return t, err
}

func (d *Decoder) next() (*history.Txn, error) {
	if !d.gotHeader {
		line, err := d.nextLine()
		if err == io.EOF {
			if d.tail {
				return nil, io.EOF // header not yet written; poll again
			}
			return nil, &DecodeError{Line: d.line + 1, Record: HeaderRecord, Op: -1,
				Err: io.ErrUnexpectedEOF}
		}
		if err != nil {
			return nil, err
		}
		if d.declared, err = decodeHeader(line, d.line); err != nil {
			return nil, err
		}
		d.gotHeader = true
	}

	line, err := d.nextLine()
	if err == io.EOF {
		if !d.tail && d.rec != d.declared {
			return nil, &DecodeError{Line: d.line, Record: d.rec, Op: -1,
				Err: fmt.Errorf("header declares %d txns, log has %d", d.declared, d.rec)}
		}
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	t, ok := d.sc.txn(line)
	if !ok {
		if t, err = unmarshalTxn(line, d.line, d.rec); err != nil {
			return nil, err
		}
	}
	d.rec++
	return t, nil
}

// decodeHeader parses the header line (stream line lineNo) and returns
// its declared transaction count.
func decodeHeader(line []byte, lineNo int) (int, error) {
	var hd header
	if err := json.Unmarshal(line, &hd); err != nil {
		return 0, &DecodeError{Line: lineNo, Record: HeaderRecord, Op: -1, Err: err}
	}
	if hd.Viper != "history" || hd.Version != FormatVersion {
		return 0, &DecodeError{Line: lineNo, Record: HeaderRecord, Op: -1,
			Err: fmt.Errorf("unsupported log format (viper=%q version=%d)", hd.Viper, hd.Version)}
	}
	if hd.Txns < 0 {
		return 0, &DecodeError{Line: lineNo, Record: HeaderRecord, Op: -1,
			Err: fmt.Errorf("negative txn count %d", hd.Txns)}
	}
	return hd.Txns, nil
}

// unmarshalTxn decodes record recNo (stream line lineNo) with
// encoding/json. It runs on every line the scanner declines, so it alone
// accepts the spellings outside the scanner's subset and it alone
// reports record DecodeErrors.
func unmarshalTxn(line []byte, lineNo, recNo int) (*history.Txn, error) {
	var rec txnRec
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, &DecodeError{Line: lineNo, Record: recNo, Op: -1, Err: err}
	}
	t := &history.Txn{
		Session:      rec.Session,
		SeqInSession: rec.Seq,
		BeginAt:      rec.Begin,
		CommitAt:     rec.Commit,
	}
	if rec.Aborted {
		t.Status = history.StatusAborted
	}
	for i, r := range rec.Ops {
		op := history.Op{Key: history.Key(r.Key)}
		switch r.Kind {
		case "r":
			op.Kind = history.OpRead
			op.Observed = history.WriteID(r.Obs)
			op.ObservedTombstone = r.Tomb
		case "w":
			op.Kind = history.OpWrite
			op.WriteID = history.WriteID(r.WID)
		case "i":
			op.Kind = history.OpInsert
			op.WriteID = history.WriteID(r.WID)
		case "d":
			op.Kind = history.OpDelete
			op.WriteID = history.WriteID(r.WID)
		case "q":
			op.Kind = history.OpRange
			op.Lo, op.Hi = history.Key(r.Lo), history.Key(r.Hi)
			for _, v := range r.Res {
				op.Result = append(op.Result, history.Version{
					Key: history.Key(v.Key), WriteID: history.WriteID(v.WID), Tombstone: v.Tomb,
				})
			}
		default:
			return nil, &DecodeError{Line: lineNo, Record: recNo, Op: i, Kind: r.Kind,
				Err: fmt.Errorf("unknown op kind")}
		}
		t.Ops = append(t.Ops, op)
	}
	return t, nil
}
