package core

import (
	"math/rand"
	"strings"
	"testing"

	"viper/internal/history"
)

// allOptionCombos returns every combination of the three optimizations,
// for verdict-consistency testing.
func allOptionCombos(level Level) []Options {
	var out []Options
	for _, combine := range []bool{false, true} {
		for _, coalesce := range []bool{false, true} {
			for _, prune := range []bool{false, true} {
				out = append(out, Options{
					Level:                level,
					DisableCombineWrites: !combine,
					DisableCoalesce:      !coalesce,
					DisablePruning:       !prune,
					InitialK:             4, // small K exercises retries
				})
			}
		}
	}
	return out
}

func checkAll(t *testing.T, h *history.History, level Level, want Outcome, label string) {
	t.Helper()
	for _, opts := range allOptionCombos(level) {
		rep := CheckHistory(h, opts)
		if rep.Outcome != want {
			t.Fatalf("%s: opts=%+v got %v, want %v", label, opts, rep.Outcome, want)
		}
	}
}

// figure2 builds the paper's Figure 2 history:
// T1: w(x,1), T2: w(x,2), T3: r(x,1). SI.
func figure2(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("x").Commit()
	s2.Txn().Write("x").Commit()
	s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Commit()
	return b.MustHistory()
}

func TestFigure2Accepted(t *testing.T) {
	checkAll(t, figure2(t), AdyaSI, Accept, "figure2")
}

// longFork builds the §3.1 long-fork history (not SI):
// T1: w(x,1) w(y,1); T2: r(x,1) w(x,2); T3: r(y,1) w(y,2);
// T4: r(x,2) r(y,1); T5: r(x,1) r(y,2).
func longFork(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	addLongFork(b)
	return b.MustHistory()
}

// addLongFork appends longFork's five transactions, on five new
// sessions, to b.
func addLongFork(b *history.Builder) {
	ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session(), b.Session()}
	t1 := ss[0].Txn().Write("x").Write("y").Commit()
	t2 := ss[1].Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
	t3 := ss[2].Txn().ReadObserved("y", t1.WriteIDOf("y")).Write("y").Commit()
	ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("y", t1.WriteIDOf("y")).Commit()
	ss[4].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t3.WriteIDOf("y")).Commit()
}

func TestLongForkRejected(t *testing.T) {
	checkAll(t, longFork(t), AdyaSI, Reject, "long fork")
}

func TestLongForkRejectedEvenWithoutCombining(t *testing.T) {
	// Without combining the rejection must come from the constraint search
	// (Figure 3's "always a cycle whichever edges we choose").
	rep := CheckHistory(longFork(t), Options{Level: AdyaSI, DisableCombineWrites: true, DisablePruning: true})
	if rep.Outcome != Reject {
		t.Fatalf("got %v", rep.Outcome)
	}
	if rep.Constraints == 0 {
		t.Fatal("expected constraints without combining")
	}
}

func TestLongForkCombiningGivesKnownCycle(t *testing.T) {
	// With combining, the RMW reads fix the write order and the cycle is
	// already in the known graph: no solving needed.
	rep := CheckHistory(longFork(t), Options{Level: AdyaSI})
	if rep.Outcome != Reject {
		t.Fatalf("got %v", rep.Outcome)
	}
	if rep.KnownCycle == nil {
		t.Fatal("expected a known-graph cycle")
	}
}

// lostUpdate: two transactions read the same version and both overwrite it.
func lostUpdate(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("x").Commit()
	s2.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
	s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
	return b.MustHistory()
}

func TestLostUpdateRejected(t *testing.T) {
	checkAll(t, lostUpdate(t), AdyaSI, Reject, "lost update")
}

// writeSkew: T1 r(x₀) w(y); T2 r(y₀) w(x). SI but not serializable.
func writeSkew(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	s1.Txn().ReadGenesis("x").Write("y").Commit()
	s2.Txn().ReadGenesis("y").Write("x").Commit()
	return b.MustHistory()
}

func TestWriteSkewAcceptedUnderSI(t *testing.T) {
	checkAll(t, writeSkew(t), AdyaSI, Accept, "write skew / SI")
}

func TestWriteSkewRejectedUnderSerializability(t *testing.T) {
	checkAll(t, writeSkew(t), Serializability, Reject, "write skew / SER")
}

// readSkew (G-SIb): T1 reads x's initial version and T2's y — a fractured
// snapshot.
func readSkew(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	wy := history.WriteID(2)
	s1.Txn().ReadGenesis("x").ReadObserved("y", wy).Commit()
	s2.Txn().Write("x").Write("y").Commit()
	return b.MustHistory()
}

func TestReadSkewRejected(t *testing.T) {
	checkAll(t, readSkew(t), AdyaSI, Reject, "read skew")
}

func TestSerializabilityAcceptsSerialHistory(t *testing.T) {
	checkAll(t, figure2(t), Serializability, Accept, "figure2 / SER")
}

// Figure 6 (§4): inserts and deletes of "y" with a range query returning
// nothing; acceptable because the range may have run before INS1
// committed.
func TestRangeQueryFigure6Accepted(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	ins1 := s.Txn().ReadGenesis("y").Insert("y").Commit()
	del2 := s.Txn().ReadObserved("y", ins1.WriteIDOf("y")).Delete("y").Commit()
	ins3 := s.Txn().ReadObserved("y", del2.WriteIDOf("y")).Insert("y").Commit()
	s.Txn().ReadObserved("y", ins3.WriteIDOf("y")).Delete("y").Commit()
	b.Session().Txn().Range("x", "z").Commit() // returned {}
	checkAll(t, b.MustHistory(), AdyaSI, Accept, "figure6")
}

// The same range query becomes impossible if another observation forces it
// after the last delete: an empty result then contradicts the tombstone
// discipline (the key would have been returned as a tombstone).
func TestRangeQueryMissingKeyRejected(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	ins1 := s.Txn().ReadGenesis("y").Insert("y").Commit()
	del2 := s.Txn().ReadObserved("y", ins1.WriteIDOf("y")).Delete("y").Commit()
	// The anchor observes the tombstone, so it is ordered after DEL2.
	anchor := s.Txn().ReadObserved("y", del2.WriteIDOf("y")).Write("a").Commit()
	b.Session().Txn().
		ReadObserved("a", anchor.WriteIDOf("a")). // forces the range txn after anchor
		Range("x", "z").                          // but y (or its tombstone) is missing
		Commit()
	checkAll(t, b.MustHistory(), AdyaSI, Reject, "figure6-reject")
}

func TestRangeQueryReturningTombstoneAccepted(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	ins1 := s.Txn().ReadGenesis("y").Insert("y").Commit()
	del2 := s.Txn().ReadObserved("y", ins1.WriteIDOf("y")).Delete("y").Commit()
	anchor := s.Txn().Write("a").Commit()
	b.Session().Txn().
		ReadObserved("a", anchor.WriteIDOf("a")).
		Range("x", "z", history.Version{Key: "y", WriteID: del2.WriteIDOf("y"), Tombstone: true}).
		Commit()
	checkAll(t, b.MustHistory(), AdyaSI, Accept, "figure6-tombstone")
}

// Variant-level tests. The builder's logical clock stamps begins/commits
// in issue order, so ClockDrift 0 orders all non-simultaneous events.

func TestStaleSnapshotGSIvsStrongSI(t *testing.T) {
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	s1.Txn().Write("x").Commit() // commits in real time before T2 begins
	s2.Txn().ReadGenesis("x").Commit()
	h := b.MustHistory()

	for level, want := range map[Level]Outcome{
		AdyaSI:   Accept, // old snapshots fine
		GSI:      Accept, // old snapshots fine in real time too
		StrongSI: Reject, // must read the most recent snapshot
	} {
		rep := CheckHistory(h, Options{Level: level})
		if rep.Outcome != want {
			t.Errorf("level %v: got %v, want %v", level, rep.Outcome, want)
		}
	}
}

func TestFutureReadGSIRejects(t *testing.T) {
	// T2 reads a value whose writer commits (in real time) after T2 began.
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	widX := b.NextWriteID()
	t2 := s2.Txn().At(5) // begins at 5
	s1.Txn().At(1).Write("x").CommitAt(10)
	t2.ReadObserved("x", widX).CommitAt(12)
	h := b.MustHistory()

	if rep := CheckHistory(h, Options{Level: AdyaSI}); rep.Outcome != Accept {
		t.Fatalf("AdyaSI: got %v, want Accept (logical time may reorder)", rep.Outcome)
	}
	if rep := CheckHistory(h, Options{Level: GSI}); rep.Outcome != Reject {
		t.Fatalf("GSI: got %v, want Reject", rep.Outcome)
	}
}

func TestClockDriftExcusesFutureRead(t *testing.T) {
	// Same shape, but the timestamps are within the drift bound: GSI must
	// accept (completeness under bounded drift; §5).
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	widX := b.NextWriteID()
	t2 := s2.Txn().At(5)
	s1.Txn().At(1).Write("x").CommitAt(10)
	t2.ReadObserved("x", widX).CommitAt(12)
	h := b.MustHistory()

	rep := CheckHistory(h, Options{Level: GSI, ClockDrift: 100}) // 100ns > all gaps
	if rep.Outcome != Accept {
		t.Fatalf("got %v, want Accept under large drift", rep.Outcome)
	}
}

func TestSessionInversionSSSIvsGSI(t *testing.T) {
	// A session writes x and then fails to observe its own write.
	b := history.NewBuilder()
	s := b.Session()
	s.Txn().Write("x").Commit()
	s.Txn().ReadGenesis("x").Commit()
	h := b.MustHistory()

	if rep := CheckHistory(h, Options{Level: GSI}); rep.Outcome != Accept {
		t.Fatalf("GSI: got %v, want Accept", rep.Outcome)
	}
	if rep := CheckHistory(h, Options{Level: StrongSessionSI}); rep.Outcome != Reject {
		t.Fatalf("SSSI: got %v, want Reject", rep.Outcome)
	}
}

func TestCombiningWritesLeavesNoConstraintsForRMWChains(t *testing.T) {
	// A pure RMW workload (the TPC-C effect in Figure 10: no solving).
	b := history.NewBuilder()
	s := b.Session()
	prev := s.Txn().ReadGenesis("x").Write("x").Commit()
	for i := 0; i < 10; i++ {
		prev = s.Txn().ReadObserved("x", prev.WriteIDOf("x")).Write("x").Commit()
	}
	h := b.MustHistory()
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.Outcome != Accept {
		t.Fatalf("got %v", rep.Outcome)
	}
	if rep.Constraints != 0 {
		t.Fatalf("constraints = %d, want 0 with combining", rep.Constraints)
	}
	// Without combining there are plenty.
	rep = CheckHistory(h, Options{Level: AdyaSI, DisableCombineWrites: true})
	if rep.Outcome != Accept {
		t.Fatalf("got %v", rep.Outcome)
	}
	if rep.Constraints == 0 {
		t.Fatal("expected constraints without combining")
	}
}

func TestWitnessPositionsAreValidSchedule(t *testing.T) {
	h := figure2(t)
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.Outcome != Accept || rep.WitnessPositions == nil {
		t.Fatalf("no witness: %+v", rep.Outcome)
	}
	pg := Build(h, Options{Level: AdyaSI})
	pos := rep.WitnessPositions
	for _, ke := range pg.Known {
		if pos[ke.From] >= pos[ke.To] {
			t.Fatalf("witness violates known edge %v", ke)
		}
	}
}

func TestEmptyHistoryAccepted(t *testing.T) {
	b := history.NewBuilder()
	checkAll(t, b.MustHistory(), AdyaSI, Accept, "empty")
}

func TestAbortedTxnsIgnored(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	s.Txn().Write("x").Abort()
	s.Txn().ReadGenesis("x").Commit() // fine: the write aborted
	checkAll(t, b.MustHistory(), AdyaSI, Accept, "aborted ignored")
}

// randomSerialHistory executes transactions strictly serially against an
// in-test store: the result is SI (indeed strictly serializable) by
// construction.
func randomSerialHistory(rng *rand.Rand, nTxns, nKeys, nSessions int) *history.History {
	b := history.NewBuilder()
	sessions := make([]*history.SessionBuilder, nSessions)
	for i := range sessions {
		sessions[i] = b.Session()
	}
	latest := make(map[history.Key]history.WriteID)
	keys := make([]history.Key, nKeys)
	for i := range keys {
		keys[i] = history.Key(rune('a' + i))
	}
	for i := 0; i < nTxns; i++ {
		tb := sessions[rng.Intn(nSessions)].Txn()
		wrote := make(map[history.Key]bool)
		for op := 0; op < 1+rng.Intn(4); op++ {
			k := keys[rng.Intn(nKeys)]
			if rng.Intn(2) == 0 {
				if wrote[k] {
					tb.ReadOwn(k)
				} else {
					tb.ReadObserved(k, latest[k])
				}
			} else {
				tb.Write(k)
				wrote[k] = true
			}
		}
		if rng.Intn(10) == 0 {
			tb.Abort()
			continue
		}
		c := tb.Commit()
		for k := range wrote {
			latest[k] = c.WriteIDOf(k)
		}
	}
	return b.MustHistory()
}

// TestRandomSerialHistoriesAcceptedEverywhere is the completeness property
// test: serial executions are SI at every level and under every
// optimization combination.
func TestRandomSerialHistoriesAcceptedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 15; iter++ {
		h := randomSerialHistory(rng, 20+rng.Intn(30), 4, 3)
		for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability} {
			rep := CheckHistory(h, Options{Level: level, InitialK: 4})
			if rep.Outcome != Accept {
				t.Fatalf("iter %d level %v: %v", iter, level, rep.Outcome)
			}
		}
		checkAll(t, h, AdyaSI, Accept, "random serial")
	}
}

// TestRandomSnapshotLagHistories exercises old-snapshot reads: read-only
// transactions read a consistent committed prefix. Adya SI and GSI accept;
// Strong SI must reject once a reader observably lags.
func TestRandomSnapshotLagHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 10; iter++ {
		b := history.NewBuilder()
		writerS, readerS := b.Session(), b.Session()
		type snap map[history.Key]history.WriteID
		var snaps []snap // committed prefix snapshots
		cur := snap{}
		snaps = append(snaps, snap{})
		keys := []history.Key{"x", "y", "z"}
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 {
				tb := writerS.Txn()
				k := keys[rng.Intn(len(keys))]
				tb.ReadObserved(k, cur[k])
				tb.Write(k)
				c := tb.Commit()
				next := snap{}
				for kk, vv := range cur {
					next[kk] = vv
				}
				next[k] = c.WriteIDOf(k)
				cur = next
				snaps = append(snaps, cur)
			} else {
				// Read-only txn at a random old snapshot.
				sidx := rng.Intn(len(snaps))
				tb := readerS.Txn()
				for _, k := range keys {
					if rng.Intn(2) == 0 {
						tb.ReadObserved(k, snaps[sidx][k])
					}
				}
				tb.Commit()
			}
		}
		h := b.MustHistory()
		for _, level := range []Level{AdyaSI, GSI} {
			rep := CheckHistory(h, Options{Level: level, InitialK: 8})
			if rep.Outcome != Accept {
				t.Fatalf("iter %d level %v: %v", iter, level, rep.Outcome)
			}
		}
	}
}

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{
		AdyaSI: "adya-si", GSI: "gsi", StrongSessionSI: "strong-session-si",
		StrongSI: "strong-si", Serializability: "serializability",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), s)
		}
	}
	if Accept.String() != "accept" || Reject.String() != "reject" || Timeout.String() != "timeout" {
		t.Error("Outcome strings")
	}
}

func TestEdgeKindStrings(t *testing.T) {
	want := map[EdgeKind]string{
		EdgeIntra: "intra", EdgeWR: "wr", EdgeWW: "ww", EdgeRW: "rw",
		EdgeSession: "session", EdgeRealTime: "real-time", EdgeHeuristic: "heuristic",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestSelfCheckVerifiesAcrossLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	h := randomSerialHistory(rng, 60, 4, 3)
	for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability} {
		rep := CheckHistory(h, Options{Level: level, SelfCheck: true})
		if rep.Outcome != Accept {
			t.Fatalf("level %v: %v", level, rep.Outcome)
		}
		if rep.SelfCheckErr != nil {
			t.Fatalf("level %v: self-check: %v", level, rep.SelfCheckErr)
		}
		if !rep.WitnessVerified {
			t.Fatalf("level %v: witness not verified", level)
		}
	}
}

func TestVerifyWitnessRejectsBogusSchedule(t *testing.T) {
	h := figure2(t)
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.Outcome != Accept {
		t.Fatal(rep.Outcome)
	}
	// Corrupt the schedule: swap the reader's begin before its writer's
	// commit.
	pos := append([]int32(nil), rep.WitnessPositions...)
	pg := Build(h, Options{Level: AdyaSI})
	b3 := pg.Begin(3) // T3 reads x from T1
	c1 := pg.Commit(1)
	pos[b3], pos[c1] = pos[c1], pos[b3]
	if err := VerifyWitness(h, pos, AdyaSI); err == nil {
		t.Fatal("corrupted witness accepted")
	}
	if err := VerifyWitness(h, nil, AdyaSI); err == nil {
		t.Fatal("nil witness accepted")
	}
}

func TestNodeNameAndDefaults(t *testing.T) {
	h := figure2(t)
	pg := Build(h, DefaultOptions(AdyaSI))
	if pg.NodeName(pg.Begin(1)) != "B1" || pg.NodeName(pg.Commit(1)) != "C1" {
		t.Fatalf("names: %s/%s", pg.NodeName(pg.Begin(1)), pg.NodeName(pg.Commit(1)))
	}
	ser := Build(h, DefaultOptions(Serializability))
	if ser.NodeName(1) != "T1" {
		t.Fatalf("ser name: %s", ser.NodeName(1))
	}
	// Aux node names on a real-time build.
	rt := Build(h, DefaultOptions(StrongSI))
	if rt.NumNodes <= 2*int32(len(h.Txns)) {
		t.Fatal("no aux nodes for StrongSI")
	}
	if got := rt.NodeName(rt.NumNodes - 1); len(got) < 4 || got[:3] != "aux" {
		t.Fatalf("aux name: %s", got)
	}
}

func TestReadCommittedLevel(t *testing.T) {
	// Write skew and long fork are PL-2-legal: RC accepts what SI rejects.
	if rep := CheckHistory(writeSkew(t), Options{Level: ReadCommitted}); rep.Outcome != Accept {
		t.Fatalf("write skew under RC: %v", rep.Outcome)
	}
	if rep := CheckHistory(longFork(t), Options{Level: ReadCommitted}); rep.Outcome != Accept {
		t.Fatalf("long fork under RC: %v", rep.Outcome)
	}
	if rep := CheckHistory(lostUpdate(t), Options{Level: ReadCommitted}); rep.Outcome != Accept {
		t.Fatalf("lost update under RC: %v", rep.Outcome)
	}

	// G1c (cyclic information flow) violates RC.
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	wy := history.WriteID(2)
	s1.Txn().Write("x").ReadObserved("y", wy).Commit()
	s2.Txn().ReadObserved("x", 1).Write("y").Commit()
	h := b.MustHistory()
	rep := CheckHistory(h, Options{Level: ReadCommitted})
	if rep.Outcome != Reject || rep.KnownCycle == nil {
		t.Fatalf("G1c under RC: %v (cycle %v)", rep.Outcome, rep.KnownCycle)
	}

	// G1b (intermediate read) violates RC: T1 writes x twice; T2 observes
	// the first (non-final) write.
	h2 := history.New()
	h2.Append(&history.Txn{Session: 0, BeginAt: 1, CommitAt: 2, Ops: []history.Op{
		{Kind: history.OpWrite, Key: "x", WriteID: 10},
		{Kind: history.OpWrite, Key: "x", WriteID: 11},
	}})
	h2.Append(&history.Txn{Session: 1, BeginAt: 3, CommitAt: 4, Ops: []history.Op{
		{Kind: history.OpRead, Key: "x", Observed: 10},
	}})
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep := CheckHistory(h2, Options{Level: ReadCommitted}); rep.Outcome != Reject {
		t.Fatalf("G1b under RC: %v", rep.Outcome)
	}
	if ReadCommitted.String() != "read-committed" {
		t.Fatal("level string")
	}
}

// TestPruningRobustToAdversarialClocks: collector timestamps only seed the
// pruning heuristic; scrambling them must never change an Adya SI verdict
// (wrong guesses are repaired by the double-k retry loop).
func TestPruningRobustToAdversarialClocks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		h := randomSerialHistory(rng, 40, 4, 3)
		// Scramble timestamps (keep begin < commit within each txn so the
		// history stays plausible, but destroy all cross-txn meaning).
		for _, tx := range h.Txns[1:] {
			b := rng.Int63n(1000)
			tx.BeginAt, tx.CommitAt = b, b+1+rng.Int63n(10)
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		rep := CheckHistory(h, Options{Level: AdyaSI, InitialK: 2, SelfCheck: true})
		if rep.Outcome != Accept {
			t.Fatalf("iter %d: scrambled clocks flipped verdict: %v (retries %d)",
				iter, rep.Outcome, rep.Retries)
		}
		if rep.SelfCheckErr != nil {
			t.Fatalf("iter %d: self-check: %v", iter, rep.SelfCheckErr)
		}
		// And a genuine violation must still be rejected.
		hBad := longFork(t)
		for _, tx := range hBad.Txns[1:] {
			b := rng.Int63n(1000)
			tx.BeginAt, tx.CommitAt = b, b+1+rng.Int63n(10)
		}
		if err := hBad.Validate(); err != nil {
			t.Fatal(err)
		}
		if rep := CheckHistory(hBad, Options{Level: AdyaSI, InitialK: 2}); rep.Outcome != Reject {
			t.Fatalf("iter %d: scrambled clocks accepted long fork", iter)
		}
	}
}

func TestPolygraphStatsAndString(t *testing.T) {
	h := longFork(t)
	pg := Build(h, Options{Level: AdyaSI, DisableCombineWrites: true})
	st := pg.Stats()
	if st.Nodes != int(pg.NumNodes) || st.Constraints != len(pg.Cons) {
		t.Fatalf("stats = %+v", st)
	}
	if st.EdgesByKind[EdgeIntra] != 6 { // genesis + 5 txns
		t.Fatalf("intra edges = %d", st.EdgesByKind[EdgeIntra])
	}
	if st.EdgesByKind[EdgeWR] == 0 || st.ConstraintEdges == 0 {
		t.Fatalf("stats = %+v", st)
	}
	s := pg.String()
	if !strings.Contains(s, "BC-polygraph") || !strings.Contains(s, "adya-si") {
		t.Fatalf("String() = %q", s)
	}
}

// TestVerifyWitnessRejectsOverlappingWriters: two read-modify-writes of
// x that both read genesis, scheduled b1 b2 c2 c1. Every read replays,
// so only SI's NoConflict rule can refuse the schedule.
func TestVerifyWitnessRejectsOverlappingWriters(t *testing.T) {
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	s1.Txn().ReadGenesis("x").Write("x").Commit()
	s2.Txn().ReadGenesis("x").Write("x").Commit()
	h := b.MustHistory()
	// Nodes: genesis 0/1, b1=2, c1=3, b2=4, c2=5.
	pos := []int32{0, 1, 2, 5, 3, 4}
	for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI} {
		err := VerifyWitness(h, pos, level)
		if err == nil {
			t.Fatalf("%v: overlapping writers of x verified", level)
		}
		if msg := err.Error(); !strings.Contains(msg, "txns 1 and 2") || !strings.Contains(msg, `"x"`) {
			t.Fatalf("%v: error %q does not name T1, T2 and x", level, err)
		}
	}
	// The serial schedule b1 c1 b2 c2 fails the replay instead (T2 reads
	// genesis after T1 installed x), and b2 c2 b1 c1 likewise: the
	// history is a lost update, and no schedule verifies.
	for _, p := range [][]int32{{0, 1, 2, 3, 4, 5}, {0, 1, 4, 5, 2, 3}} {
		if err := VerifyWitness(h, p, AdyaSI); err == nil {
			t.Fatalf("schedule %v verified a lost update", p)
		}
	}
	// Under Serializability begin and commit are one node per txn.
	if err := VerifyWitness(h, []int32{0, 1, 2}, Serializability); err == nil {
		t.Fatal("serial schedule verified a lost update under SER")
	}
}
