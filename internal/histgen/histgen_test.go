package histgen

import (
	"testing"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/oracle"
)

func TestGeneratedHistoriesAreSIByConstruction(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := SI(Spec{Txns: 150, Keys: 6, MaxConcurrency: 5, AbortEvery: 7, Seed: seed})
		for _, level := range []core.Level{core.AdyaSI, core.GSI, core.StrongSessionSI, core.StrongSI} {
			rep := core.CheckHistory(h, core.Options{Level: level})
			if rep.Outcome != core.Accept {
				t.Fatalf("seed %d level %v: %v", seed, level, rep.Outcome)
			}
		}
	}
}

func TestGeneratedTinyHistoriesAgreeWithOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		h := SI(Spec{Txns: 5, Keys: 3, MaxConcurrency: 3, Seed: seed})
		if !oracle.IsSI(h) {
			t.Fatalf("seed %d: oracle says generated history is not SI", seed)
		}
	}
}

func TestGeneratedPlusAnomalyRejected(t *testing.T) {
	h := SI(Spec{Txns: 80, Seed: 3})
	anomaly.Inject(h, anomaly.LongFork)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
	if rep.Outcome != core.Reject {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
}

// TestListAppendManifestsWriteOrder pins the generator's defining
// property: per key, the committed appends form one linear chain, each
// append's manifest read naming its predecessor — no version-order
// inference required and no forks.
func TestListAppendManifestsWriteOrder(t *testing.T) {
	h := ListAppend(Spec{Txns: 200, Keys: 5, MaxConcurrency: 5, AbortEvery: 9, Seed: 11})
	if h.ComputeStats().Aborted == 0 {
		t.Fatal("want some aborts in the carrier history")
	}
	// pred[key][v] = true once a committed append observed head v of key.
	pred := make(map[history.Key]map[history.WriteID]bool)
	for _, txn := range h.Txns[1:] {
		if !txn.Committed() {
			continue
		}
		reads := make(map[history.Key]history.WriteID)
		for _, op := range txn.Ops {
			switch op.Kind {
			case history.OpRead:
				reads[op.Key] = op.Observed
			case history.OpWrite:
				obs, ok := reads[op.Key]
				if !ok {
					t.Fatalf("write %d of %q has no manifest read", op.WriteID, op.Key)
				}
				if pred[op.Key] == nil {
					pred[op.Key] = make(map[history.WriteID]bool)
				}
				if pred[op.Key][obs] {
					t.Fatalf("key %q forked: two committed appends observed head %d", op.Key, obs)
				}
				pred[op.Key][obs] = true
			}
		}
	}
}

// TestListAppendDifferentialOracle is the generator's differential
// suite: on tiny list-append histories the checker's AdyaSI and
// Serializability verdicts must equal the exhaustive oracle's, and the
// one-pass matrix must respect monotonicity against the oracle (an
// oracle-SI history is accepted by every weaker level).
func TestListAppendDifferentialOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		h := ListAppend(Spec{Txns: 6, Keys: 3, MaxConcurrency: 3, WritesPerTxn: 2, Seed: seed})
		si, ser := oracle.IsSI(h), oracle.IsSerializable(h)
		if !si {
			t.Fatalf("seed %d: oracle says generated list-append history is not SI", seed)
		}
		mr := core.CheckMatrixHistory(h, core.Options{})
		if got := mr.Verdict(core.AdyaSI).Outcome == core.Accept; got != si {
			t.Fatalf("seed %d: checker SI %v, oracle %v", seed, got, si)
		}
		if got := mr.Verdict(core.Serializability).Outcome == core.Accept; got != ser {
			t.Fatalf("seed %d: checker SER %v, oracle %v", seed, got, ser)
		}
		for _, l := range []core.Level{core.ReadCommitted, core.ReadAtomic, core.Causal} {
			if mr.Verdict(l).Outcome != core.Accept {
				t.Fatalf("seed %d: oracle-SI history rejected at weaker level %v", seed, l)
			}
		}
	}
}

// TestListAppendPlusAnomalyDifferential injects every graph-level
// anomaly into a tiny list-append carrier and cross-checks the checker
// against the oracle at both solver levels.
func TestListAppendPlusAnomalyDifferential(t *testing.T) {
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue
		}
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			h := ListAppend(Spec{Txns: 3, Keys: 2, MaxConcurrency: 2, Seed: 21})
			anomaly.Inject(h, kind)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			si, ser := oracle.IsSI(h), oracle.IsSerializable(h)
			if si {
				t.Fatalf("oracle still calls the %v history SI", kind)
			}
			if got := core.CheckHistory(h, core.Options{Level: core.AdyaSI}).Outcome == core.Accept; got != si {
				t.Fatalf("checker SI %v, oracle %v", got, si)
			}
			if got := core.CheckHistory(h, core.Options{Level: core.Serializability}).Outcome == core.Accept; got != ser {
				t.Fatalf("checker SER %v, oracle %v", got, ser)
			}
		})
	}
}

func TestListAppendDeterministicBySeed(t *testing.T) {
	a := ListAppend(Spec{Txns: 50, Seed: 9})
	b := ListAppend(Spec{Txns: 50, Seed: 9})
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 1; i < len(a.Txns); i++ {
		if len(a.Txns[i].Ops) != len(b.Txns[i].Ops) {
			t.Fatalf("txn %d differs", i)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	h := SI(Spec{Seed: 1})
	if h.Len() != 100 {
		t.Fatalf("default Txns: got %d", h.Len())
	}
	st := h.ComputeStats()
	if st.Sessions == 0 || st.Sessions > 4 {
		t.Fatalf("sessions = %d, want ≤ default concurrency", st.Sessions)
	}
}

func TestConflictAbortsHappen(t *testing.T) {
	// High contention: few keys, high concurrency — first-committer-wins
	// must doom some transactions.
	h := SI(Spec{Txns: 300, Keys: 2, MaxConcurrency: 6, WritesPerTxn: 2, Seed: 5})
	st := h.ComputeStats()
	if st.Aborted == 0 {
		t.Fatal("no conflict aborts under heavy contention")
	}
	rep := core.CheckHistory(h, core.Options{Level: core.StrongSI})
	if rep.Outcome != core.Accept {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := SI(Spec{Txns: 50, Seed: 9})
	b := SI(Spec{Txns: 50, Seed: 9})
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 1; i < len(a.Txns); i++ {
		if len(a.Txns[i].Ops) != len(b.Txns[i].Ops) {
			t.Fatalf("txn %d differs", i)
		}
	}
}

// TestKeysBeyondHundred: a key space past 99 yields distinct keys, not
// the 110 that printing only the last two digits allowed.
func TestKeysBeyondHundred(t *testing.T) {
	if key(123) == key(23) || key(100) != "gk100" {
		t.Fatalf("key(123)=%q key(23)=%q key(100)=%q", key(123), key(23), key(100))
	}
	h := SI(Spec{Txns: 2000, Keys: 500, Seed: 1})
	if got := len(h.Keys()); got <= 110 {
		t.Fatalf("Spec{Keys: 500} wrote %d distinct keys, want more than 110", got)
	}
}
