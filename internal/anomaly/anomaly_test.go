package anomaly

import (
	"errors"
	"testing"

	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/oracle"
	"viper/internal/runner"
	"viper/internal/workload"
)

func baseHistory(t *testing.T) *history.History {
	t.Helper()
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 4, Txns: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEveryKindRejected: each injected violation must flip an accepted
// history to rejected — either at validation (G1a-class) or by the
// checker.
func TestEveryKindRejected(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			h := baseHistory(t)
			if rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI}); rep.Outcome != core.Accept {
				t.Fatalf("base history not SI: %v", rep.Outcome)
			}
			Inject(h, kind)
			err := h.Validate()
			if kind.ValidationLevel() {
				var verr *history.ValidationError
				if !errors.As(err, &verr) {
					t.Fatalf("validation-level anomaly not caught: %v", err)
				}
				switch kind {
				case AbortedRead:
					if verr.Kind != history.ErrAbortedRead {
						t.Fatalf("kind = %v", verr.Kind)
					}
				case ReadYourFutureWrites:
					if verr.Kind != history.ErrFutureRead {
						t.Fatalf("kind = %v", verr.Kind)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("injected history no longer validates: %v", err)
			}
			rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
			if rep.Outcome != core.Reject {
				t.Fatalf("checker accepted %v (outcome %v)", kind, rep.Outcome)
			}
		})
	}
}

func TestInjectIntoEmptyHistory(t *testing.T) {
	b := history.NewBuilder()
	h := b.MustHistory()
	Inject(h, LongFork)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
	if rep.Outcome != core.Reject {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
}

func TestInjectPreservesFreshWriteIDs(t *testing.T) {
	h := baseHistory(t)
	before := h.Len()
	Inject(h, LostUpdate)
	if err := h.Validate(); err != nil {
		t.Fatalf("write-id collision after inject: %v", err)
	}
	if h.Len() != before+3 {
		t.Fatalf("appended %d txns, want 3", h.Len()-before)
	}
}

// serialBase builds a clean single-client history that every matrix
// level accepts — the neutral carrier for level-aware injections.
func serialBase(t *testing.T) *history.History {
	t.Helper()
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 1, Txns: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestExpectationMatrix locks the level-aware classification of the
// corpus: for every kind, injected into both an empty and a clean serial
// base, (a) each level's independent check and (b) the one-pass verdict
// matrix land exactly on the Expectation table — same per-level
// accept/reject, same weakest violated level.
func TestExpectationMatrix(t *testing.T) {
	bases := map[string]func(t *testing.T) *history.History{
		"empty":  func(t *testing.T) *history.History { return history.NewBuilder().MustHistory() },
		"serial": serialBase,
	}
	for baseName, mk := range bases {
		for _, kind := range Kinds() {
			kind := kind
			t.Run(baseName+"/"+kind.String(), func(t *testing.T) {
				h := Inject(mk(t), kind)
				err := h.Validate()
				exp := kind.Expectation()
				if exp.Validation {
					if err == nil {
						t.Fatal("validation-level anomaly validated cleanly")
					}
					if exp.Accepts != nil || exp.WeakestViolated != "" {
						t.Fatalf("validation expectation carries level verdicts: %+v", exp)
					}
					return
				}
				if err != nil {
					t.Fatalf("injected history does not validate: %v", err)
				}

				// Independent per-level checks.
				for _, name := range MatrixLevels {
					lvl, ok := core.ParseLevel(name)
					if !ok {
						t.Fatalf("MatrixLevels name %q unknown to core.ParseLevel", name)
					}
					want := core.Reject
					if exp.Accepts[name] {
						want = core.Accept
					}
					if rep := core.CheckHistory(h, core.Options{Level: lvl}); rep.Outcome != want {
						t.Errorf("independent %s = %v, want %v", name, rep.Outcome, want)
					}
				}

				// One-pass matrix agrees, including the headline level.
				mr := core.CheckMatrixHistory(h, core.Options{})
				if !mr.Violated || mr.WeakestViolated.String() != exp.WeakestViolated {
					t.Errorf("matrix weakest violated = %q (violated=%v), want %q",
						mr.WeakestViolated, mr.Violated, exp.WeakestViolated)
				}
				for _, name := range MatrixLevels {
					lvl, _ := core.ParseLevel(name)
					v := mr.Verdict(lvl)
					if v == nil {
						t.Fatalf("matrix has no verdict for %s", name)
					}
					want := core.Reject
					if exp.Accepts[name] {
						want = core.Accept
					}
					if v.Outcome != want {
						t.Errorf("matrix %s = %v, want %v", name, v.Outcome, want)
					}
				}
			})
		}
	}
}

// TestExpectationCoversEveryLevel pins the table's shape: non-validation
// expectations carry a verdict for every matrix level, and the weakest
// violated level is the first rejecting one in lattice order.
func TestExpectationCoversEveryLevel(t *testing.T) {
	for _, kind := range Kinds() {
		exp := kind.Expectation()
		if exp.Validation {
			continue
		}
		if len(exp.Accepts) != len(MatrixLevels) {
			t.Fatalf("%v: %d level verdicts, want %d", kind, len(exp.Accepts), len(MatrixLevels))
		}
		weakest := ""
		for _, name := range MatrixLevels {
			if _, ok := exp.Accepts[name]; !ok {
				t.Fatalf("%v: no verdict for %s", kind, name)
			}
			if !exp.Accepts[name] && weakest == "" {
				weakest = name
			}
		}
		if weakest != exp.WeakestViolated {
			t.Fatalf("%v: weakest = %q, table says %q", kind, weakest, exp.WeakestViolated)
		}
	}
}

// TestExpectationMatchesOracle checks the Expectation table against the
// exhaustive oracle (internal/oracle), which decides SI and
// serializability by searching every schedule: on each kind injected into
// an empty history, the oracle's verdicts are the table's adya-si and
// serializability entries.
func TestExpectationMatchesOracle(t *testing.T) {
	for _, kind := range Kinds() {
		exp := kind.Expectation()
		if exp.Validation {
			continue
		}
		h := Inject(history.NewBuilder().MustHistory(), kind)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := oracle.IsSI(h); got != exp.Accepts["adya-si"] {
			t.Errorf("%v: oracle says SI %v, table %v", kind, got, exp.Accepts["adya-si"])
		}
		if got := oracle.IsSerializable(h); got != exp.Accepts["serializability"] {
			t.Errorf("%v: oracle says serializable %v, table %v", kind, got, exp.Accepts["serializability"])
		}
	}
}

// TestPhantomIsTheScansMiss: the phantom's violation is the key its range
// scan omits, read as that key's initial version (§4). The same history
// whose scan returns the insert is accepted at every matrix level, by the
// oracle and by each level's check.
func TestPhantomIsTheScansMiss(t *testing.T) {
	h := Inject(history.NewBuilder().MustHistory(), Phantom)
	insert := h.Txns[len(h.Txns)-2].Ops[1]
	scan := &h.Txns[len(h.Txns)-1].Ops[1]
	if scan.Kind != history.OpRange || insert.Kind != history.OpInsert || insert.Key < scan.Lo || insert.Key > scan.Hi {
		t.Fatalf("scan %+v does not cover insert %+v", scan, insert)
	}
	scan.Result = []history.Version{{Key: insert.Key, WriteID: insert.WriteID}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !oracle.IsSI(h) || !oracle.IsSerializable(h) {
		t.Fatal("the oracle rejects the phantom with the insert returned")
	}
	for _, name := range MatrixLevels {
		lvl, _ := core.ParseLevel(name)
		if rep := core.CheckHistory(h, core.Options{Level: lvl}); rep.Outcome != core.Accept {
			t.Errorf("%s: %v with the insert returned, want Accept", name, rep.Outcome)
		}
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range Kinds() {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate label %q", s)
		}
		seen[s] = true
	}
}

func TestWriteSkewNotInjectable(t *testing.T) {
	// Sanity: the GSIb injection is a genuine single-anti-dep cycle, not
	// write skew — the checker must reject it even though write skew (two
	// anti-deps) would be accepted.
	b := history.NewBuilder()
	h := b.MustHistory()
	Inject(h, GSIb)
	h.Validate()
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI, DisableCombineWrites: true})
	if rep.Outcome != core.Reject {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
}
