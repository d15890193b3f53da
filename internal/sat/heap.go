package sat

// varHeap is a max-heap of variables ordered by activity, with an index map
// for decrease-key (activity bumps). It is the VSIDS order used by
// pickBranchLit.
type varHeap struct {
	heap []Var
	pos  []int32 // pos[v] = index in heap, -1 if absent
}

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *varHeap) insert(v Var, act []float64) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.up(int(h.pos[v]), act)
}

func (h *varHeap) insertIfAbsent(v Var, act []float64) {
	if !h.contains(v) {
		h.insert(v, act)
	}
}

// decrease restores the heap property after act[v] increased (the variable
// may only move up since this is a max-heap keyed on activity).
func (h *varHeap) decrease(v Var, act []float64) {
	if h.contains(v) {
		h.up(int(h.pos[v]), act)
	}
}

func (h *varHeap) removeMin(act []float64) (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return v, true
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.heap[p]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			break
		}
		c := l
		if r := l + 1; r < len(h.heap) && act[h.heap[r]] > act[h.heap[l]] {
			c = r
		}
		if act[h.heap[c]] <= act[v] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
