package acyclic

import "math/bits"

// Edge tables are the checker's edge-keyed lookups: open-addressing hash
// tables over the packed (From, To) pair, in a set form (EdgeSet) and an
// edge → int32 form (EdgeIndex). They serve the hot paths (the
// construction replay's known set, the theory's constants and edge
// variables, the warm session's constant provenance) the way MonoSAT's
// graph theory indexes edges by integer ids. The tables hold no pointers,
// so the garbage collector never scans them, and a caller that knows its
// entry count presizes with Reserve; otherwise a table doubles as it
// fills.
//
// Keys are internal node ids, dense and assigned by the checker, never
// values a client chooses, so an unseeded multiplicative hash is enough.
// A self-loop is never stored (no caller needs one, and the theory
// rejects them as cycles), so key 0 — the self-loop 0→0 — marks an empty
// slot and the table needs no separate occupancy array.

// edgeKey packs u→v into one table key.
func edgeKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// fibMul is 2^64 divided by the golden ratio: multiplying by it and
// keeping the top bits spreads the packed keys' structured low and high
// halves over the slots (Fibonacci hashing).
const fibMul = 0x9E3779B97F4A7C15

// edgeTable is the probing core EdgeSet and EdgeIndex share: a
// power-of-two key array under linear probing, kept at most half full,
// and a one-hash Bloom filter of four bits per slot in front of it. Most
// lookups on the check path miss (a constraint side's edge is rarely
// already known), and a table of a few hundred thousand edges outgrows
// the CPU caches, so a miss would cost a memory access; the filter, a
// sixteenth of the keys' size, answers most misses from cache instead.
// vals parallels keys in an EdgeIndex and stays nil in an EdgeSet.
type edgeTable struct {
	keys   []uint64
	vals   []int32
	filter []uint64
	n      int
	shift  uint // 64 - log2(len(keys)); the filter hashes to 2 more bits
}

// hash returns k's home slot, scaled by four, plus two further hash bits:
// the index of k's filter bit.
func (t *edgeTable) hash(k uint64) uint64 { return (k * fibMul) >> (t.shift - 2) }

// find returns the slot holding k, or the empty slot where k belongs.
// The table must have at least one empty slot.
func (t *edgeTable) find(k uint64) (int, bool) {
	mask := len(t.keys) - 1
	for i := int(t.hash(k) >> 2); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// lookup returns the slot holding u→v, if any. A self-loop is never
// present.
func (t *edgeTable) lookup(u, v int32) (int, bool) {
	if t.n == 0 || u == v {
		return 0, false
	}
	k := edgeKey(u, v)
	if b := t.hash(k); t.filter[b>>6]&(1<<(b&63)) == 0 {
		return 0, false
	}
	return t.find(k)
}

// insert returns the slot of u→v, claiming an empty one if the edge is
// new (added reports which). A new edge's value slot is the caller's to
// fill.
func (t *edgeTable) insert(u, v int32, withVals bool) (slot int, added bool) {
	if u == v {
		panic("acyclic: self-loop in an edge table")
	}
	if (t.n+1)*2 > len(t.keys) {
		t.resize(2*len(t.keys), withVals)
	}
	k := edgeKey(u, v)
	i, found := t.find(k)
	if found {
		return i, false
	}
	t.place(i, k)
	t.n++
	return i, true
}

// place stores k in slot i and sets its filter bit.
func (t *edgeTable) place(i int, k uint64) {
	t.keys[i] = k
	b := t.hash(k)
	t.filter[b>>6] |= 1 << (b & 63)
}

// reserve grows the table, if needed, to hold n entries without resizing.
func (t *edgeTable) reserve(n int, withVals bool) {
	size := len(t.keys)
	for n*2 > size {
		size *= 2
		if size == 0 {
			size = 8
		}
	}
	if size > len(t.keys) {
		t.resize(size, withVals)
	}
}

// resize rehashes every entry into a table of size slots (a power of
// two, at least 8).
func (t *edgeTable) resize(size int, withVals bool) {
	if size < 8 {
		size = 8
	}
	old, oldVals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.filter = make([]uint64, (4*size+63)/64)
	if withVals {
		t.vals = make([]int32, size)
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, k := range old {
		if k == 0 {
			continue
		}
		j, _ := t.find(k)
		t.place(j, k)
		if withVals {
			t.vals[j] = oldVals[i]
		}
	}
}

// EdgeSet is a set of directed edges between node ids. The zero value is
// an empty set. Self-loops cannot be added and are never members.
type EdgeSet struct{ t edgeTable }

// Reserve presizes the set to hold n edges without growing.
func (s *EdgeSet) Reserve(n int) { s.t.reserve(n, false) }

// Add inserts u→v (u != v) and reports whether it was new.
func (s *EdgeSet) Add(u, v int32) bool {
	_, added := s.t.insert(u, v, false)
	return added
}

// Has reports whether u→v is in the set.
func (s *EdgeSet) Has(u, v int32) bool {
	_, ok := s.t.lookup(u, v)
	return ok
}

// Len returns the number of edges in the set.
func (s *EdgeSet) Len() int { return s.t.n }

// EdgeIndex maps directed edges between node ids to int32 values (dense
// ids, positions in a caller's slice). The zero value is an empty index.
// Self-loops cannot be added and are never present.
type EdgeIndex struct{ t edgeTable }

// Reserve presizes the index to hold n edges without growing.
func (x *EdgeIndex) Reserve(n int) { x.t.reserve(n, true) }

// Add maps u→v (u != v) to val unless the edge is already present, and
// reports whether it was added. An edge keeps the value of its first Add.
func (x *EdgeIndex) Add(u, v, val int32) bool {
	i, added := x.t.insert(u, v, true)
	if added {
		x.t.vals[i] = val
	}
	return added
}

// Get returns the value of u→v, if present.
func (x *EdgeIndex) Get(u, v int32) (int32, bool) {
	i, ok := x.t.lookup(u, v)
	if !ok {
		return 0, false
	}
	return x.t.vals[i], true
}

// Len returns the number of edges in the index.
func (x *EdgeIndex) Len() int { return x.t.n }
