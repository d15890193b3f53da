// Package bitset provides fixed-capacity packed bitsets over small
// non-negative integers. The checker uses one Set per graph node as an
// ancestor row (core/causal.go): reachability tests become one word load,
// and merging a predecessor's set into a node's row is a word-wide OR over
// the packed representation — 64 nodes per instruction, cache-linear, and
// trivially safe to run on disjoint rows from multiple goroutines. Words
// also sizes core/resolve.go's closure budget.
package bitset

import "math/bits"

// wordBits is the bit width of one storage word.
const wordBits = 64

// Words returns the number of uint64 words needed to hold n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Set is a fixed-capacity bitset: bit i is element i. The capacity is
// fixed at allocation (New); Add and Has beyond it are out of range by
// contract — callers size sets to the node-id space up front.
type Set []uint64

// New returns an empty set with capacity for n elements.
func New(n int) Set { return make(Set, Words(n)) }

// Has reports whether i is in the set.
func (s Set) Has(i int32) bool {
	return s[uint32(i)/wordBits]&(1<<(uint32(i)%wordBits)) != 0
}

// Add inserts i, reporting whether the set changed.
func (s Set) Add(i int32) bool {
	w, b := uint32(i)/wordBits, uint64(1)<<(uint32(i)%wordBits)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// UnionWith folds o into s (s ∪= o), reporting whether s changed. o may
// have a smaller capacity than s; the missing high words are treated as
// zero.
func (s Set) UnionWith(o Set) bool {
	changed := false
	n := len(o)
	if n > len(s) {
		n = len(s)
	}
	for w := 0; w < n; w++ {
		if o[w]&^s[w] != 0 {
			s[w] |= o[w]
			changed = true
		}
	}
	return changed
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
