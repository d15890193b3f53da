package acyclic

import (
	"math"
	"testing"
)

// edgeTableNodes are the node ids FuzzEdgeTable draws from: node 0 (whose
// self-loop is the empty-slot key), ids near MaxInt32, and small dense ids
// like the checker's.
var edgeTableNodes = []int32{0, 1, 2, 3, math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 - 2, 1 << 16, 1<<16 + 1, 1 << 31 / 3}

func edgeTableNode(b byte) int32 {
	if int(b) < len(edgeTableNodes) {
		return edgeTableNodes[b]
	}
	return int32(b)
}

// FuzzEdgeTable drives an EdgeSet and an EdgeIndex through the same
// random add and lookup sequence as a map[Edge]int32 reference. Each op
// is three bytes (kind, from, to); reserve presizes both tables, so
// inputs cover presized tables and tables that grow from empty.
// Self-loops are looked up, never added, and must answer absent.
func FuzzEdgeTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 0, 0, 4, 5, 1, 5, 4}, uint16(0))
	f.Add([]byte{0, 4, 5, 0, 5, 4, 0, 4, 4, 1, 4, 5, 2, 6, 0}, uint16(100))
	grow := make([]byte, 0, 3*600)
	for i := 0; i < 600; i++ {
		grow = append(grow, byte(i%3), byte(i*7), byte(i*13+1))
	}
	f.Add(grow, uint16(0))
	f.Add(grow, uint16(1000))
	f.Fuzz(func(t *testing.T, ops []byte, reserve uint16) {
		var set EdgeSet
		var idx EdgeIndex
		set.Reserve(int(reserve))
		idx.Reserve(int(reserve))
		ref := make(map[Edge]int32)
		for ; len(ops) >= 3; ops = ops[3:] {
			e := Edge{edgeTableNode(ops[1]), edgeTableNode(ops[2])}
			want, had := ref[e]
			if ops[0]%3 == 0 && e.From != e.To {
				val := int32(len(ref)) * 7
				if added := set.Add(e.From, e.To); added == had {
					t.Fatalf("EdgeSet.Add(%v) = %v, edge already present: %v", e, added, had)
				}
				if added := idx.Add(e.From, e.To, val); added == had {
					t.Fatalf("EdgeIndex.Add(%v) = %v, edge already present: %v", e, added, had)
				}
				if !had {
					ref[e] = val
				}
				continue
			}
			if got := set.Has(e.From, e.To); got != had {
				t.Fatalf("EdgeSet.Has(%v) = %v, want %v", e, got, had)
			}
			if got, ok := idx.Get(e.From, e.To); ok != had || got != want {
				t.Fatalf("EdgeIndex.Get(%v) = %d, %v, want %d, %v", e, got, ok, want, had)
			}
		}
		if set.Len() != len(ref) || idx.Len() != len(ref) {
			t.Fatalf("Len = %d (set), %d (index), want %d", set.Len(), idx.Len(), len(ref))
		}
		for e, want := range ref {
			if got, ok := idx.Get(e.From, e.To); !ok || got != want || !set.Has(e.From, e.To) {
				t.Fatalf("edge %v: Get = %d, %v and Has = %v, want %d", e, got, ok, set.Has(e.From, e.To), want)
			}
		}
	})
}

// TestEdgeTableSelfLoopAdd pins the one input the tables refuse: adding a
// self-loop is a caller bug (its key would collide with the empty-slot
// marker for node 0).
func TestEdgeTableSelfLoopAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeSet.Add(0, 0) did not panic")
		}
	}()
	var s EdgeSet
	s.Add(0, 0)
}
