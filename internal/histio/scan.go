package histio

import "viper/internal/history"

// scanner decodes transaction records without reflection, straight into
// history.Txn. It takes the spellings Encode writes and the JSON that
// differs from them only in insignificant whitespace or member order:
// objects with the exact txnRec, opRec and vRec member names, each at
// most once; integers without fraction or exponent that fit their field;
// true and false; and strings of printable ASCII without escapes.
//
// Anything else — escapes, non-ASCII bytes, null, numbers out of range,
// unknown, duplicate or case-folded member names (which encoding/json
// ignores, overwrites or folds), unknown op kinds and every malformed
// line — is declined, and the caller decodes the line with encoding/json
// instead. The scanner thus never reports an error of its own: for every
// line it takes, its result equals the encoding/json path's.
type scanner struct {
	b []byte
	i int
	// Per-record scratch, reused across records: ops and range results
	// gather here and are copied out into exact-size slices.
	ops  []history.Op
	vers []history.Version
}

// txn decodes one record line, or reports false to decline it.
func (s *scanner) txn(line []byte) (*history.Txn, bool) {
	s.b, s.i = line, 0
	s.ops, s.vers = s.ops[:0], s.vers[:0]
	var t history.Txn
	ok := s.object(func(name []byte) (uint8, bool) {
		var ok bool
		switch string(name) {
		case "s":
			t.Session, ok = s.integer32()
			return 1 << 0, ok
		case "n":
			t.SeqInSession, ok = s.integer32()
			return 1 << 1, ok
		case "b":
			t.BeginAt, ok = s.integer(64)
			return 1 << 2, ok
		case "c":
			t.CommitAt, ok = s.integer(64)
			return 1 << 3, ok
		case "aborted":
			var aborted bool
			if aborted, ok = s.boolean(); aborted {
				t.Status = history.StatusAborted
			}
			return 1 << 4, ok
		case "ops":
			return 1 << 5, s.array(s.op)
		}
		return 0, false
	})
	if !ok || !s.end() {
		return nil, false
	}
	if len(s.ops) > 0 {
		t.Ops = make([]history.Op, len(s.ops))
		copy(t.Ops, s.ops)
	}
	return &t, true
}

// op decodes one opRec object onto s.ops, applying the same per-kind
// field selection as the encoding/json path.
func (s *scanner) op() bool {
	var (
		kind         []byte
		key, lo, hi  history.Key
		wid, obs     int64
		tomb         bool
		resLo, resHi int // the op's range results: s.vers[resLo:resHi]
	)
	ok := s.object(func(name []byte) (uint8, bool) {
		var ok bool
		switch string(name) {
		case "k":
			kind, ok = s.str()
			return 1 << 0, ok
		case "key":
			key, ok = s.key()
			return 1 << 1, ok
		case "wid":
			wid, ok = s.integer(64)
			return 1 << 2, ok
		case "obs":
			obs, ok = s.integer(64)
			return 1 << 3, ok
		case "tomb":
			tomb, ok = s.boolean()
			return 1 << 4, ok
		case "lo":
			lo, ok = s.key()
			return 1 << 5, ok
		case "hi":
			hi, ok = s.key()
			return 1 << 6, ok
		case "res":
			resLo = len(s.vers)
			ok = s.array(s.version)
			resHi = len(s.vers)
			return 1 << 7, ok
		}
		return 0, false
	})
	if !ok {
		return false
	}
	op := history.Op{Key: key}
	switch string(kind) {
	case "r":
		op.Kind = history.OpRead
		op.Observed = history.WriteID(obs)
		op.ObservedTombstone = tomb
	case "w":
		op.Kind = history.OpWrite
		op.WriteID = history.WriteID(wid)
	case "i":
		op.Kind = history.OpInsert
		op.WriteID = history.WriteID(wid)
	case "d":
		op.Kind = history.OpDelete
		op.WriteID = history.WriteID(wid)
	case "q":
		op.Kind = history.OpRange
		op.Lo, op.Hi = lo, hi
		if resHi > resLo {
			op.Result = make([]history.Version, resHi-resLo)
			copy(op.Result, s.vers[resLo:resHi])
		}
	default:
		return false
	}
	s.ops = append(s.ops, op)
	return true
}

// version decodes one vRec object onto s.vers.
func (s *scanner) version() bool {
	var v history.Version
	ok := s.object(func(name []byte) (uint8, bool) {
		var ok bool
		switch string(name) {
		case "key":
			v.Key, ok = s.key()
			return 1 << 0, ok
		case "wid":
			var wid int64
			wid, ok = s.integer(64)
			v.WriteID = history.WriteID(wid)
			return 1 << 1, ok
		case "tomb":
			v.Tombstone, ok = s.boolean()
			return 1 << 2, ok
		}
		return 0, false
	})
	if ok {
		s.vers = append(s.vers, v)
	}
	return ok
}

// object scans {"name": value, ...}, calling member with each name while
// the cursor sits before the value. member consumes the value and
// returns the member's bit, or reports false for a name it does not
// know or a value it cannot take; a bit seen twice declines the object.
func (s *scanner) object(member func(name []byte) (uint8, bool)) bool {
	if !s.expect('{') {
		return false
	}
	if s.skip() == '}' {
		s.i++
		return true
	}
	var seen uint8
	for {
		name, ok := s.str()
		if !ok || !s.expect(':') {
			return false
		}
		bit, ok := member(name)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch s.skip() {
		case ',':
			s.i++
		case '}':
			s.i++
			return true
		default:
			return false
		}
	}
}

// array scans [elem, ...], calling elem for each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.expect('[') {
		return false
	}
	if s.skip() == ']' {
		s.i++
		return true
	}
	for {
		if !elem() {
			return false
		}
		switch s.skip() {
		case ',':
			s.i++
		case ']':
			s.i++
			return true
		default:
			return false
		}
	}
}

// skip moves past JSON whitespace and returns the next byte, or 0 at the
// end of the line.
func (s *scanner) skip() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c after optional whitespace.
func (s *scanner) expect(c byte) bool {
	if s.skip() != c {
		return false
	}
	s.i++
	return true
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// str scans a string of printable ASCII without escapes and returns its
// contents, which alias the line.
func (s *scanner) str() ([]byte, bool) {
	if !s.expect('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key is str copied out of the line, for key, lo and hi.
func (s *scanner) key() (history.Key, bool) {
	v, ok := s.str()
	return history.Key(v), ok
}

// boolean scans true or false.
func (s *scanner) boolean() (bool, bool) {
	s.skip()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// integer scans an integer without fraction or exponent that fits in a
// signed integer of the given bit size.
func (s *scanner) integer(bits uint) (int64, bool) {
	s.skip()
	j := s.i
	neg := j < len(s.b) && s.b[j] == '-'
	if neg {
		j++
	}
	digits := j
	var u uint64
	for ; j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9'; j++ {
		if j-digits == 19 { // past any int64, before u can overflow
			return 0, false
		}
		u = u*10 + uint64(s.b[j]-'0')
	}
	if n := j - digits; n == 0 || n > 1 && s.b[digits] == '0' {
		return 0, false // no digits, or a leading zero JSON forbids
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if u > limit {
		return 0, false
	}
	s.i = j
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// integer32 is integer for the record's int32 fields.
func (s *scanner) integer32() (int32, bool) {
	v, ok := s.integer(32)
	return int32(v), ok
}
