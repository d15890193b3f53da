package core

import (
	"fmt"
	"sort"

	"viper/internal/acyclic"
	"viper/internal/history"
)

// VerifyWitness replays an accepting schedule and confirms it reproduces
// the history — the operational reading of Theorem 4 (§3.4): a history is
// SI iff there is a total order ŝ of begins and commits such that executing
// each begin with all of its transaction's reads and each commit with all
// of its writes, sequentially in ŝ order, reproduces every observed value.
//
// positions assigns each polygraph node its position in ŝ (the checker's
// Report.WitnessPositions). VerifyWitness returns nil if the replay
// reproduces the history, and a descriptive error otherwise — a non-nil
// error after an Accept would mean a checker bug, so this is viper's
// built-in self-check (Options.SelfCheck).
//
// Below Serializability the schedule must also satisfy SI's NoConflict
// rule: committed writers of one key never overlap. The replay alone
// cannot see an overlap, since two read-modify-writes that both read the
// same version replay every read in either commit order.
//
// Only the logical-time semantics are replayed; real-time and session
// obligations are edges in the polygraph and are already honoured by any
// topological witness.
func VerifyWitness(h *history.History, positions []int32, level Level) error {
	if positions == nil {
		return fmt.Errorf("witness: no positions")
	}
	if level.Polynomial() {
		return verifyOrderWitness(h, positions, level)
	}
	// Collect committed transactions' begin/commit events with their
	// scheduled positions. The Serializability mapping collapses begin and
	// commit to one node; replaying reads-then-writes at that single
	// position is exactly serial execution, so the same replay works.
	type event struct {
		pos    int32
		txn    history.TxnID
		commit bool
	}
	ser := level == Serializability
	var events []event
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			continue
		}
		if ser {
			if int(t.ID) >= len(positions) {
				return fmt.Errorf("witness: missing position for txn %d", t.ID)
			}
			events = append(events, event{positions[t.ID], t.ID, false})
			continue
		}
		b, c := int32(t.ID)*2, int32(t.ID)*2+1
		if int(c) >= len(positions) {
			return fmt.Errorf("witness: missing positions for txn %d", t.ID)
		}
		events = append(events, event{positions[b], t.ID, false}, event{positions[c], t.ID, true})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	if !ser {
		if err := verifyNoConflict(h, positions); err != nil {
			return err
		}
	}

	// Replay: current holds each key's latest committed write id. A
	// compacted history starts from the fence, not from nothing: the
	// checkpoint certificate's latest pre-fence versions are the initial
	// state, so live reads that observed a pre-fence value replay exactly.
	current := make(map[history.Key]history.WriteID)
	if f := h.Fence(); f != nil {
		for k, w := range f.Latest {
			current[k] = w
		}
	}
	readAt := func(t *history.Txn) error {
		var fail error
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			if fail != nil {
				return
			}
			if cur := current[key]; cur != obs {
				fail = fmt.Errorf("witness: txn %d reads %q=%d, but schedule has %d current",
					t.ID, key, obs, cur)
			}
		})
		if fail != nil {
			return fail
		}
		// Range queries: non-returned written keys must currently be at
		// their initial version (ExternalReads covers returned entries).
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind != history.OpRange {
				continue
			}
			returned := make(map[history.Key]bool, len(op.Result))
			for _, v := range op.Result {
				returned[v.Key] = true
			}
			for _, k := range h.KeysInRange(op.Lo, op.Hi) {
				if !returned[k] && current[k] != history.GenesisWriteID {
					return fmt.Errorf("witness: txn %d range [%q,%q] misses %q (current %d)",
						t.ID, op.Lo, op.Hi, k, current[k])
				}
			}
		}
		return nil
	}
	writeAt := func(t *history.Txn) {
		for key, opIdx := range t.LastWritePerKey() {
			current[key] = t.Ops[opIdx].WriteID
		}
	}

	for _, ev := range events {
		t := h.Txns[ev.txn]
		if ser {
			// One event per transaction: reads then writes.
			if err := readAt(t); err != nil {
				return err
			}
			writeAt(t)
			continue
		}
		if ev.commit {
			writeAt(t)
		} else if err := readAt(t); err != nil {
			return err
		}
	}
	return nil
}

// verifyNoConflict checks that the schedule runs the committed writers
// of each key one after another: sorted by begin, each commits before
// the next begins. Begin and commit of transaction t are nodes 2t and
// 2t+1, whose positions the caller has bounds-checked.
func verifyNoConflict(h *history.History, positions []int32) error {
	writers := make(map[history.Key][]history.TxnID)
	for _, t := range h.Txns[1:] {
		if !t.Committed() {
			continue
		}
		for key := range t.LastWritePerKey() {
			writers[key] = append(writers[key], t.ID)
		}
	}
	keys := make([]history.Key, 0, len(writers))
	for key := range writers {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	begin := func(t history.TxnID) int32 { return positions[2*t] }
	commit := func(t history.TxnID) int32 { return positions[2*t+1] }
	for _, key := range keys {
		ws := writers[key]
		sort.Slice(ws, func(i, j int) bool { return begin(ws[i]) < begin(ws[j]) })
		for i := 1; i < len(ws); i++ {
			if prev, next := ws[i-1], ws[i]; commit(prev) > begin(next) {
				return fmt.Errorf("witness: txns %d and %d both write %q but overlap in the schedule (T%d commits at %d, after T%d begins at %d)",
					prev, next, key, prev, commit(prev), next, begin(next))
			}
		}
	}
	return nil
}

// deriveCo re-derives a polynomial level's forced commit-order relation
// from the history — the independent reconstruction both polynomial
// self-checks (accepting witness, rejecting counterexample) validate
// against. For Read Committed the relation is the wr graph alone.
func deriveCo(h *history.History, level Level) *coGraph {
	g := buildObsGraph(h)
	c := g.baseCo()
	switch level {
	case ReadAtomic:
		g.saturate(c, g.directObserved)
	case Causal:
		if order, ok := acyclic.TopoBFS(g.n, g.wrOut, nil); ok {
			g.saturate(c, g.causalObserved(order))
		}
	}
	return c
}

// verifyOrderWitness validates a polynomial level's accepting witness:
// the claimed total order must run every forced commit-order obligation
// of the level forward (the operational reading of Biswas & Enea's
// characterizations — a consistent commit order IS the certificate), and
// the history must be free of intermediate reads, which no order can
// excuse.
func verifyOrderWitness(h *history.History, positions []int32, level Level) error {
	if len(positions) < len(h.Txns) {
		return fmt.Errorf("witness: %d positions for %d transactions", len(positions), len(h.Txns))
	}
	if ev := findG1b(h, 1); ev != nil {
		return fmt.Errorf("witness: history has %s", ev)
	}
	c := deriveCo(h, level)
	if level == ReadCommitted {
		// PL-2's only order obligations are the read dependencies.
		g := buildObsGraph(h)
		for from, tos := range g.wrOut {
			for _, to := range tos {
				if positions[from] >= positions[to] {
					return fmt.Errorf("witness: wr edge %d→%d runs backward", from, to)
				}
			}
		}
		return nil
	}
	for e := range c.prov {
		if positions[e.From] >= positions[e.To] {
			return fmt.Errorf("witness: forced %v edge %d→%d runs backward", level, e.From, e.To)
		}
	}
	return nil
}

// verifyCoCycle validates a polynomial level's rejecting counterexample:
// the reported cycle must close, and every edge must be re-derivable from
// the history as one of the level's forced commit-order obligations.
func verifyCoCycle(h *history.History, cycle []KnownEdge, level Level) error {
	if len(cycle) == 0 {
		return fmt.Errorf("counterexample: empty cycle")
	}
	for i := range cycle {
		next := cycle[(i+1)%len(cycle)]
		if cycle[i].To != next.From {
			return fmt.Errorf("counterexample: edge %d→%d does not chain to %d→%d",
				cycle[i].From, cycle[i].To, next.From, next.To)
		}
	}
	c := deriveCo(h, level)
	for _, ke := range cycle {
		if _, ok := c.prov[ke.Edge]; !ok {
			return fmt.Errorf("counterexample: edge %d→%d is not a forced %v obligation",
				ke.From, ke.To, level)
		}
	}
	return nil
}
