package oracle

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/history"
)

func TestOracleKnownCases(t *testing.T) {
	mk := func(build func(b *history.Builder)) *history.History {
		b := history.NewBuilder()
		build(b)
		return b.MustHistory()
	}
	cases := []struct {
		name string
		h    *history.History
		si   bool
		ser  bool
	}{
		{"empty", mk(func(b *history.Builder) {}), true, true},
		{"figure2", mk(func(b *history.Builder) {
			s1, s2, s3 := b.Session(), b.Session(), b.Session()
			t1 := s1.Txn().Write("x").Commit()
			s2.Txn().Write("x").Commit()
			s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Commit()
		}), true, true},
		{"write-skew", mk(func(b *history.Builder) {
			s1, s2 := b.Session(), b.Session()
			s1.Txn().ReadGenesis("x").Write("y").Commit()
			s2.Txn().ReadGenesis("y").Write("x").Commit()
		}), true, false}, // the canonical SI-but-not-SER history
		{"long-fork", mk(func(b *history.Builder) {
			ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session(), b.Session()}
			t1 := ss[0].Txn().Write("x").Write("y").Commit()
			t2 := ss[1].Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
			t3 := ss[2].Txn().ReadObserved("y", t1.WriteIDOf("y")).Write("y").Commit()
			ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("y", t1.WriteIDOf("y")).Commit()
			ss[4].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t3.WriteIDOf("y")).Commit()
		}), false, false},
		{"lost-update", mk(func(b *history.Builder) {
			s1, s2, s3 := b.Session(), b.Session(), b.Session()
			t1 := s1.Txn().Write("x").Commit()
			s2.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
			s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
		}), false, false},
		{"read-skew", mk(func(b *history.Builder) {
			s1, s2 := b.Session(), b.Session()
			wy := history.WriteID(2)
			s1.Txn().ReadGenesis("x").ReadObserved("y", wy).Commit()
			s2.Txn().Write("x").Write("y").Commit()
		}), false, false},
	}
	for _, tc := range cases {
		if got := IsSI(tc.h); got != tc.si {
			t.Errorf("%s: IsSI = %v, want %v", tc.name, got, tc.si)
		}
		if got := IsSerializable(tc.h); got != tc.ser {
			t.Errorf("%s: IsSerializable = %v, want %v", tc.name, got, tc.ser)
		}
	}
}

func TestSerializableImpliesSI(t *testing.T) {
	// Hierarchy sanity on random histories: SER ⊆ SI.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		if IsSerializable(h) && !IsSI(h) {
			t.Fatalf("iter %d: serializable but not SI", iter)
		}
	}
}

// randomTinyHistory builds a random, validation-clean 2–4 txn history over
// two keys whose reads observe arbitrary committed versions — SI or not.
func randomTinyHistory(rng *rand.Rand) *history.History {
	h := history.New()
	keys := []history.Key{"x", "y"}
	n := 2 + rng.Intn(3)
	nextWID := history.WriteID(1)
	type w struct {
		key history.Key
		id  history.WriteID
	}
	var pool []w // committed writes, observable by any txn
	// Pre-plan writes so reads can observe "future" txns' writes (any
	// committed write is fair game for an observation).
	plans := make([][]history.Op, n)
	for i := 0; i < n; i++ {
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				op := history.Op{Kind: history.OpWrite, Key: k, WriteID: nextWID}
				nextWID++
				plans[i] = append(plans[i], op)
				pool = append(pool, w{k, op.WriteID})
			}
		}
	}
	for i := 0; i < n; i++ {
		var ops []history.Op
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				// Observe genesis or any committed write of k (possibly by
				// a "later" txn id: ids carry no order).
				var cands []history.WriteID
				cands = append(cands, history.GenesisWriteID)
				for _, pw := range pool {
					if pw.key == k {
						cands = append(cands, pw.id)
					}
				}
				ops = append(ops, history.Op{Kind: history.OpRead, Key: k,
					Observed: cands[rng.Intn(len(cands))]})
			}
		}
		// Read-only txns sometimes issue a range query over both keys,
		// with each key either absent (claiming its initial version) or
		// observed at a random committed version — exercising the
		// tombstone-style absence reasoning of §4.
		if len(plans[i]) == 0 && rng.Intn(3) == 0 {
			rop := history.Op{Kind: history.OpRange, Lo: "x", Hi: "y"}
			for _, k := range keys {
				var cands []history.WriteID
				for _, pw := range pool {
					if pw.key == k {
						cands = append(cands, pw.id)
					}
				}
				if len(cands) == 0 || rng.Intn(2) == 0 {
					continue // absent from the result ⇒ initial version
				}
				rop.Result = append(rop.Result, history.Version{
					Key: k, WriteID: cands[rng.Intn(len(cands))]})
			}
			ops = append(ops, rop)
		}
		ops = append(ops, plans[i]...)
		h.Append(&history.Txn{Session: int32(i), Ops: ops,
			BeginAt: int64(i*2 + 1), CommitAt: int64(i*2 + 2)})
	}
	if err := h.Validate(); err != nil {
		return nil // e.g. a txn observing its own later write; skip
	}
	return h
}

// TestDifferentialOracleVsViper is the repo's strongest correctness test:
// on hundreds of random tiny histories the exhaustive oracle and the real
// checker must agree, for SI under every optimization combination and for
// serializability.
func TestDifferentialOracleVsViper(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	combos := []core.Options{
		{Level: core.AdyaSI},
		{Level: core.AdyaSI, DisableCombineWrites: true},
		{Level: core.AdyaSI, DisableCoalesce: true},
		{Level: core.AdyaSI, DisablePruning: true},
		{Level: core.AdyaSI, InitialK: 1},
		{Level: core.AdyaSI, DisableCombineWrites: true, DisableCoalesce: true, DisablePruning: true},
	}
	checked := 0
	for iter := 0; iter < 600; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		checked++
		wantSI := IsSI(h)
		for _, opts := range combos {
			opts.SelfCheck = true
			rep := core.CheckHistory(h, opts)
			got := rep.Outcome == core.Accept
			if got != wantSI {
				t.Fatalf("iter %d: viper(%+v) = %v, oracle = %v\nhistory: %+v",
					iter, opts, rep.Outcome, wantSI, dump(h))
			}
			if got && rep.SelfCheckErr != nil {
				t.Fatalf("iter %d: witness self-check failed: %v", iter, rep.SelfCheckErr)
			}
		}
		wantSER := IsSerializable(h)
		rep := core.CheckHistory(h, core.Options{Level: core.Serializability, SelfCheck: true})
		if (rep.Outcome == core.Accept) != wantSER {
			t.Fatalf("iter %d: viper(SER) = %v, oracle = %v\nhistory: %+v",
				iter, rep.Outcome, wantSER, dump(h))
		}
		if rep.Outcome == core.Accept && rep.SelfCheckErr != nil {
			t.Fatalf("iter %d: SER witness self-check failed: %v", iter, rep.SelfCheckErr)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d histories validated; generator too restrictive", checked)
	}
}

// TestParallelBuildMatchesSerialOnFuzzCorpus runs the worker-count
// differential over the oracle fuzz corpus: Build with Parallelism 2 and 8
// must reproduce the polygraph of one recording worker (stats, edge sets,
// constraints) and the same verdict on every generated history.
func TestParallelBuildMatchesSerialOnFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for iter := 0; iter < 400; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		checked++
		for _, level := range []core.Level{core.AdyaSI, core.Serializability} {
			serial := core.Build(h, core.Options{Level: level, Parallelism: 1})
			for _, p := range []int{2, 8} {
				sharded := core.Build(h, core.Options{Level: level, Parallelism: p})
				if !reflect.DeepEqual(serial.Stats(), sharded.Stats()) {
					t.Fatalf("iter %d p=%d %v: stats %+v vs %+v\nhistory: %+v",
						iter, p, level, serial.Stats(), sharded.Stats(), dump(h))
				}
				if !reflect.DeepEqual(serial.Known, sharded.Known) ||
					!reflect.DeepEqual(serial.Cons, sharded.Cons) {
					t.Fatalf("iter %d p=%d %v: polygraph differs from one worker's\nhistory: %+v",
						iter, p, level, dump(h))
				}
			}
			want := core.CheckHistory(h, core.Options{Level: level, Parallelism: 1}).Outcome
			for _, p := range []int{2, 8} {
				got := core.CheckHistory(h, core.Options{Level: level, Parallelism: p}).Outcome
				if got != want {
					t.Fatalf("iter %d p=%d %v: outcome %v, one worker %v\nhistory: %+v",
						iter, p, level, got, want, dump(h))
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d histories validated; generator too restrictive", checked)
	}
}

func dump(h *history.History) []string {
	var out []string
	for _, tx := range h.Txns[1:] {
		s := ""
		for _, op := range tx.Ops {
			if op.Kind == history.OpRead {
				s += " r(" + string(op.Key) + ")=" + itoa(int64(op.Observed))
			} else {
				s += " w(" + string(op.Key) + ")=" + itoa(int64(op.WriteID))
			}
		}
		out = append(out, s)
	}
	return out
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// FuzzDifferential is the fuzzing entry point for the oracle-vs-viper
// differential: each fuzz input seeds the tiny-history generator. Run with
//
//	go test ./internal/oracle -fuzz FuzzDifferential
//
// In normal test runs only the seed corpus executes.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		h := randomTinyHistory(rand.New(rand.NewSource(seed)))
		if h == nil {
			return
		}
		want := IsSI(h)
		for _, opts := range []core.Options{
			{Level: core.AdyaSI, SelfCheck: true},
			{Level: core.AdyaSI, DisableCombineWrites: true, DisableCoalesce: true},
		} {
			rep := core.CheckHistory(h, opts)
			if (rep.Outcome == core.Accept) != want {
				t.Fatalf("seed %d: viper=%v oracle=%v (%v)", seed, rep.Outcome, want, dump(h))
			}
			if rep.SelfCheckErr != nil {
				t.Fatalf("seed %d: self-check: %v", seed, rep.SelfCheckErr)
			}
		}
	})
}

// TestDifferentialRealTimeVariants extends the differential to the
// real-time levels: random tiny histories with random timestamps, checked
// by viper and by the exhaustive variant oracle, at two drift bounds.
func TestDifferentialRealTimeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	levels := []struct {
		core core.Level
		orc  Variant
	}{
		{core.GSI, GSI},
		{core.StrongSessionSI, StrongSessionSI},
		{core.StrongSI, StrongSI},
	}
	checked := 0
	for iter := 0; iter < 300; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		// Scramble timestamps (random begins, commits after begins) and
		// pack transactions into two shared sessions so Strong Session SI
		// has real session edges to enforce.
		for i, tx := range h.Txns[1:] {
			b := rng.Int63n(40)
			tx.BeginAt, tx.CommitAt = b, b+1+rng.Int63n(40)
			tx.Session = int32(i % 2)
			tx.SeqInSession = int32(i / 2)
		}
		if err := h.Validate(); err != nil {
			continue
		}
		checked++
		for _, drift := range []time.Duration{0, 5} {
			for _, lv := range levels {
				want := IsVariantSI(h, lv.orc, drift)
				rep := core.CheckHistory(h, core.Options{Level: lv.core, ClockDrift: drift, SelfCheck: true})
				got := rep.Outcome == core.Accept
				if got != want {
					t.Fatalf("iter %d level %v drift %v: viper=%v oracle=%v\n%v",
						iter, lv.core, drift, rep.Outcome, want, dump(h))
				}
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d histories checked", checked)
	}
}

// TestVariantHierarchyOnOracle: StrongSI ⊆ SSSI ⊆ GSI ⊆ SI on random
// histories (the Crooks hierarchy, §2.2).
func TestVariantHierarchyOnOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 150; iter++ {
		h := randomTinyHistory(rng)
		if h == nil {
			continue
		}
		for _, tx := range h.Txns[1:] {
			b := rng.Int63n(30)
			tx.BeginAt, tx.CommitAt = b, b+1+rng.Int63n(30)
		}
		if err := h.Validate(); err != nil {
			continue
		}
		strong := IsVariantSI(h, StrongSI, 0)
		sssi := IsVariantSI(h, StrongSessionSI, 0)
		gsi := IsVariantSI(h, GSI, 0)
		si := IsSI(h)
		if strong && !sssi {
			t.Fatalf("iter %d: StrongSI ⊄ SSSI\n%v", iter, dump(h))
		}
		if sssi && !gsi {
			t.Fatalf("iter %d: SSSI ⊄ GSI\n%v", iter, dump(h))
		}
		if gsi && !si {
			t.Fatalf("iter %d: GSI ⊄ SI\n%v", iter, dump(h))
		}
	}
}
