package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
)

// matrixCorpus is the named differential corpus: clean histories of both
// generators, the paper's Figure 2, and every graph-level anomaly kind
// injected into a clean SI carrier.
func matrixCorpus(t *testing.T) map[string]*history.History {
	t.Helper()
	corpus := map[string]*history.History{
		"empty":      history.NewBuilder().MustHistory(),
		"si-gen":     histgen.SI(histgen.Spec{Txns: 60, Keys: 6, MaxConcurrency: 4, AbortEvery: 9, Seed: 2}),
		"listappend": histgen.ListAppend(histgen.Spec{Txns: 60, Keys: 5, MaxConcurrency: 4, Seed: 3}),
		"figure2":    figure2(t),
	}
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue
		}
		h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 30, Keys: 6, MaxConcurrency: 3, Seed: 5}), kind)
		if err := h.Validate(); err != nil {
			t.Fatalf("anomaly/%v: %v", kind, err)
		}
		corpus["anomaly/"+kind.String()] = h
	}
	return corpus
}

// TestMatrixMatchesIndependentChecks is the matrix's contract test: over
// the whole named corpus, every CheckMatrixHistory verdict — including
// the derived ones — equals an independent CheckHistory at that level,
// and the weakest-violated attribution equals the first independently
// rejecting level in lattice order.
func TestMatrixMatchesIndependentChecks(t *testing.T) {
	for name, h := range matrixCorpus(t) {
		name, h := name, h
		t.Run(name, func(t *testing.T) {
			if err := h.Validate(); err != nil {
				t.Fatalf("corpus history does not validate: %v", err)
			}
			mr := CheckMatrixHistory(h, Options{SelfCheck: true})
			firstReject := Level(0)
			haveReject := false
			for _, l := range MatrixLevels {
				want := CheckHistory(h, Options{Level: l, SelfCheck: true})
				v := mr.Verdict(l)
				if v == nil {
					t.Fatalf("no matrix verdict for %v", l)
				}
				if v.Outcome != want.Outcome {
					t.Errorf("%v: matrix %v (derived=%v from %v), independent %v",
						l, v.Outcome, v.Derived, v.From, want.Outcome)
				}
				if want.Outcome == Reject && !haveReject {
					firstReject, haveReject = l, true
				}
			}
			if mr.Violated != haveReject {
				t.Fatalf("Violated = %v, independent checks say %v", mr.Violated, haveReject)
			}
			if haveReject && mr.WeakestViolated != firstReject {
				t.Fatalf("WeakestViolated = %v, independent checks say %v", mr.WeakestViolated, firstReject)
			}
		})
	}
}

// TestMatrixIncrementalDifferential streams a history — clean prefix, an
// injected long fork in the tail — into a warm Matrix session, auditing
// after every batch, and pins each audit's per-level outcomes to a fresh
// one-shot CheckMatrixHistory over a snapshot of the same prefix. The
// accept→reject transition must happen at the same batch with the same
// weakest-violated attribution.
func TestMatrixIncrementalDifferential(t *testing.T) {
	stream := histgen.SI(histgen.Spec{Txns: 40, Keys: 5, MaxConcurrency: 4, Seed: 7})
	anomaly.Inject(stream, anomaly.LongFork)

	live := history.New()
	m := NewMatrix(Options{})
	sawReject := false
	for i := 1; i < len(stream.Txns); {
		end := i + 7
		if end > len(stream.Txns) {
			end = len(stream.Txns)
		}
		for ; i < end; i++ {
			t2 := *stream.Txns[i]
			live.Append(&t2)
		}
		if err := live.Validate(); err != nil {
			t.Fatalf("prefix does not validate: %v", err)
		}
		got := m.Audit(live)

		snap := history.New()
		for _, tx := range live.Txns[1:] {
			t2 := *tx
			snap.Append(&t2)
		}
		if err := snap.Validate(); err != nil {
			t.Fatal(err)
		}
		want := CheckMatrixHistory(snap, Options{})
		for _, l := range MatrixLevels {
			if g, w := got.Verdict(l).Outcome, want.Verdict(l).Outcome; g != w {
				t.Fatalf("prefix %d, %v: warm %v, one-shot %v", live.Len(), l, g, w)
			}
		}
		if got.Violated != want.Violated || got.WeakestViolated != want.WeakestViolated {
			t.Fatalf("prefix %d: warm (%v,%v), one-shot (%v,%v)", live.Len(),
				got.Violated, got.WeakestViolated, want.Violated, want.WeakestViolated)
		}
		// A clean SI prefix may legitimately reject at Serializability
		// (write skew); only the complete stream carries the long fork.
		if i == len(stream.Txns) {
			if !got.Violated || got.WeakestViolated != AdyaSI {
				t.Fatalf("full stream: violated=%v weakest=%v, want the long fork at adya-si",
					got.Violated, got.WeakestViolated)
			}
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("the final batch never ran")
	}
}

// TestMatrixDerivesOnAccept pins the short-circuit accounting: a clean
// history checks exactly AdyaSI, GSI, and Serializability and derives the
// polynomial chain; a chain-level rejection checks the chain bottom-up
// and derives everything stronger.
func TestMatrixDerivesOnAccept(t *testing.T) {
	clean := histgen.SI(histgen.Spec{Txns: 40, Seed: 1})
	mr := CheckMatrixHistory(clean, Options{})
	if mr.Checked != 3 {
		t.Fatalf("clean history checked %d levels, want 3", mr.Checked)
	}
	for _, l := range []Level{ReadCommitted, ReadAtomic, Causal} {
		if v := mr.Verdict(l); !v.Derived || v.From != AdyaSI || v.Outcome != Accept {
			t.Fatalf("%v: %+v, want derived accept from adya-si", l, v)
		}
	}

	fr := anomaly.Inject(history.NewBuilder().MustHistory(), anomaly.FracturedRead)
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	mr = CheckMatrixHistory(fr, Options{})
	// AdyaSI, ReadCommitted, ReadAtomic ran; Causal, GSI, Serializability derive.
	if mr.Checked != 3 {
		t.Fatalf("fractured read checked %d levels, want 3", mr.Checked)
	}
	for _, l := range []Level{Causal, GSI, Serializability} {
		if v := mr.Verdict(l); !v.Derived || v.From != ReadAtomic || v.Outcome != Reject {
			t.Fatalf("%v: %+v, want derived reject from read-atomic", l, v)
		}
	}
}

// ---- lattice-monotonicity fuzzing ----

// fuzzKey maps a byte to one of four keys.
func fuzzKey(b byte) history.Key {
	return history.Key([]byte{'f', 'z', '0' + b%4})
}

// historyFromFuzz decodes arbitrary bytes into a committed, validated
// history: each transaction takes one header byte (session, op count)
// and per op a byte choosing write-vs-read, the key, and — for reads —
// which already-installed version of that key to observe (possibly
// genesis, possibly stale, possibly the transaction's own). Staleness and
// fractured observations are exactly what exercises the level lattice.
func historyFromFuzz(data []byte) *history.History {
	h := history.New()
	const nSessions = 3
	var seq [nSessions]int32
	widsByKey := make(map[history.Key][]history.WriteID)
	nextWID := history.WriteID(1)
	var clock int64
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) && h.Len() < 64 {
		b := next()
		sess := int32(b) % nSessions
		nops := int(b/8)%4 + 1
		clock++
		t := &history.Txn{Session: sess, SeqInSession: seq[sess], BeginAt: clock, Status: history.StatusCommitted}
		seq[sess]++
		for o := 0; o < nops; o++ {
			ob := next()
			k := fuzzKey(ob)
			if ob&4 != 0 {
				widsByKey[k] = append(widsByKey[k], nextWID)
				t.Ops = append(t.Ops, history.Op{Kind: history.OpWrite, Key: k, WriteID: nextWID})
				nextWID++
			} else {
				var obs history.WriteID
				if n := len(widsByKey[k]); n > 0 {
					if idx := int(next()) % (n + 1); idx > 0 {
						obs = widsByKey[k][idx-1]
					}
				}
				t.Ops = append(t.Ops, history.Op{Kind: history.OpRead, Key: k, Observed: obs})
			}
		}
		clock++
		t.CommitAt = clock
		h.Append(t)
	}
	return h
}

// monotonicityViolation checks the lattice law on a matrix report: a
// stronger level accepting while a weaker one rejects is impossible.
// Returns "" when the law holds.
func monotonicityViolation(mr *MatrixReport) string {
	weaker := map[Level][]Level{
		ReadAtomic:      {ReadCommitted},
		Causal:          {ReadCommitted, ReadAtomic},
		AdyaSI:          {ReadCommitted, ReadAtomic, Causal},
		GSI:             {ReadCommitted, ReadAtomic, Causal, AdyaSI},
		Serializability: {ReadCommitted, ReadAtomic, Causal, AdyaSI},
	}
	for strong, weaks := range weaker {
		sv := mr.Verdict(strong)
		if sv == nil || sv.Outcome != Accept {
			continue
		}
		for _, weak := range weaks {
			if wv := mr.Verdict(weak); wv != nil && wv.Outcome == Reject {
				return fmt.Sprintf("%v accepts while weaker %v rejects", strong, weak)
			}
		}
	}
	return ""
}

// dumpFuzzSeed writes a minimized failing input into the fuzz seed corpus
// (testdata/fuzz/FuzzLatticeMonotonicity), so the regression re-runs on
// every future `go test` automatically. Returns the file path.
func dumpFuzzSeed(t *testing.T, data []byte) string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzLatticeMonotonicity")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("creating seed corpus dir: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("monotonicity-violation-%x", data))
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("writing seed corpus file: %v", err)
	}
	return path
}

// FuzzLatticeMonotonicity fuzzes the verdict matrix with arbitrary
// decoded histories and asserts lattice monotonicity on every report. A
// violation is minimized (greedily dropping input bytes while it still
// reproduces) and dumped into the seed corpus before failing.
func FuzzLatticeMonotonicity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x07, 0x10, 0x03, 0x00})
	f.Add([]byte{0x1f, 0x25, 0x01, 0x83, 0x44, 0x02, 0x60, 0x05, 0x01})
	// A fractured-read shape: writer of two keys, reader splitting it.
	f.Add([]byte{0x09, 0x04, 0x05, 0x11, 0x00, 0x01, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := historyFromFuzz(data)
		if err := h.Validate(); err != nil {
			// The decoder aims for valid histories; an invalid one is a
			// decoder bug worth failing on, not skipping.
			t.Fatalf("decoded history does not validate: %v", err)
		}
		mr := CheckMatrixHistory(h, Options{})
		viol := monotonicityViolation(mr)
		if viol == "" {
			return
		}
		// Minimize: drop one byte at a time while the violation survives.
		min := append([]byte(nil), data...)
		for i := 0; i < len(min); {
			cand := append(append([]byte(nil), min[:i]...), min[i+1:]...)
			ch := historyFromFuzz(cand)
			if ch.Validate() == nil && monotonicityViolation(CheckMatrixHistory(ch, Options{})) != "" {
				min = cand
			} else {
				i++
			}
		}
		path := dumpFuzzSeed(t, min)
		t.Fatalf("lattice monotonicity violated: %s (minimized input saved to %s)", viol, path)
	})
}
