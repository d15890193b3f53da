package collector

import (
	"errors"
	"sync"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/mvcc"
)

func newC(fault mvcc.FaultMode) *Collector {
	return New(mvcc.New(mvcc.Config{Fault: fault}), Config{})
}

func TestReadWriteRoundTrip(t *testing.T) {
	c := newC(mvcc.FaultNone)
	s := c.Session()
	t1 := s.Begin()
	t1.Write("x", "hello")
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := s.Begin()
	v, ok, err := t2.Read("x")
	if err != nil || !ok || v != "hello" {
		t.Fatalf("Read = %q %v %v", v, ok, err)
	}
	t2.Commit()

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("history has %d txns", h.Len())
	}
	// The read must have observed txn 1's write id.
	readOp := h.Txns[2].Ops[0]
	ref, ok := h.WriterOf(readOp.Observed)
	if !ok || ref.Txn != 1 {
		t.Fatalf("read resolves to %+v", ref)
	}
}

func TestGenesisRead(t *testing.T) {
	c := newC(mvcc.FaultNone)
	s := c.Session()
	tx := s.Begin()
	if _, ok, _ := tx.Read("missing"); ok {
		t.Fatal("missing key read as live")
	}
	tx.Commit()
	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Txns[1].Ops[0].Observed != history.GenesisWriteID {
		t.Fatalf("observed %d, want genesis", h.Txns[1].Ops[0].Observed)
	}
}

func TestInsertDeleteTombstoneDiscipline(t *testing.T) {
	c := newC(mvcc.FaultNone)
	s := c.Session()

	t1 := s.Begin()
	if err := t1.Insert("k", "v1"); err != nil {
		t.Fatal(err)
	}
	t1.Commit()

	t2 := s.Begin()
	if err := t2.Insert("k", "v2"); !errors.Is(err, ErrExists) {
		t.Fatalf("double insert: %v", err)
	}
	t2.Commit()

	t3 := s.Begin()
	if err := t3.Delete("k"); err != nil {
		t.Fatal(err)
	}
	t3.Commit()

	t4 := s.Begin()
	if err := t4.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Reinsert over the tombstone works.
	if err := t4.Insert("k", "v3"); err != nil {
		t.Fatal(err)
	}
	t4.Commit()

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
	if rep.Outcome != core.Accept {
		t.Fatalf("tombstone history rejected: %v", rep.Outcome)
	}
}

func TestRangeSurfacesTombstonesToCheckerNotClient(t *testing.T) {
	c := newC(mvcc.FaultNone)
	s := c.Session()
	t1 := s.Begin()
	t1.Insert("a", "1")
	t1.Insert("b", "2")
	t1.Commit()
	t2 := s.Begin()
	t2.Delete("a")
	t2.Commit()
	t3 := s.Begin()
	kvs, err := t3.Range("a", "z")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || kvs[0].Key != "b" || kvs[0].Val != "2" {
		t.Fatalf("client sees %+v, want only b", kvs)
	}
	t3.Commit()
	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	// The recorded range op must include a's tombstone.
	var rop *history.Op
	for i := range h.Txns[3].Ops {
		if h.Txns[3].Ops[i].Kind == history.OpRange {
			rop = &h.Txns[3].Ops[i]
		}
	}
	if rop == nil || len(rop.Result) != 2 {
		t.Fatalf("range op = %+v", rop)
	}
	if !rop.Result[0].Tombstone || rop.Result[1].Tombstone {
		t.Fatalf("tombstone flags wrong: %+v", rop.Result)
	}
}

func TestConflictRecordedAsAbort(t *testing.T) {
	c := newC(mvcc.FaultNone)
	s1, s2 := c.Session(), c.Session()
	t1, t2 := s1.Begin(), s2.Begin()
	t1.Write("x", "a")
	t2.Write("x", "b")
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, mvcc.ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	st := h.ComputeStats()
	if st.Txns != 1 || st.Aborted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClockDriftBounded(t *testing.T) {
	c := New(mvcc.New(mvcc.Config{}), Config{MaxClockDrift: 50 * time.Millisecond, Seed: 7})
	s1, s2 := c.Session(), c.Session()
	if s1.drift == 0 && s2.drift == 0 {
		t.Fatal("drift not applied")
	}
	for _, s := range []*Session{s1, s2} {
		if s.drift < -50_000_000 || s.drift > 50_000_000 {
			t.Fatalf("drift %d out of bounds", s.drift)
		}
	}
}

func TestConcurrentSessionsProduceValidSIHistory(t *testing.T) {
	db := mvcc.New(mvcc.Config{})
	c := New(db, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		s := c.Session()
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for j := 0; j < 30; j++ {
				tx := s.Begin()
				k := keys[(n+j)%len(keys)]
				if v, ok, _ := tx.Read(k); ok {
					tx.Write(k, v+".")
				} else {
					tx.Write(k, "0")
				}
				tx.Commit() // conflicts simply record aborts
			}
		}(i)
	}
	wg.Wait()
	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 180 {
		t.Fatalf("history has %d txns", h.Len())
	}
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
	if rep.Outcome != core.Accept {
		t.Fatalf("correct engine produced non-SI history: %v", rep.Outcome)
	}
	// And it is even Strong SI: no snapshot lag, shared clock, no drift.
	rep = core.CheckHistory(h, core.Options{Level: core.StrongSI})
	if rep.Outcome != core.Accept {
		t.Fatalf("Strong SI rejected: %v", rep.Outcome)
	}
}

func TestFaultyEngineCaughtByChecker(t *testing.T) {
	// Fractured snapshots under contention must eventually produce a
	// non-SI observation (read skew); the checker should reject.
	db := mvcc.New(mvcc.Config{Fault: mvcc.FaultFracturedSnapshot})
	c := New(db, Config{})
	s := c.Session()
	w := c.Session()

	// Writer installs x and y together, twice; a fractured reader observes
	// x before and y after a concurrent install.
	r := s.Begin()
	r.Read("x") // genesis
	t1 := w.Begin()
	t1.Write("x", "1")
	t1.Write("y", "1")
	t1.Commit()
	r.Read("y") // fractured: sees t1's y
	r.Commit()

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
	if rep.Outcome != core.Reject {
		t.Fatalf("read skew accepted: %v", rep.Outcome)
	}
}

func TestVisibleAbortCaughtByValidation(t *testing.T) {
	db := mvcc.New(mvcc.Config{Fault: mvcc.FaultVisibleAborts})
	c := New(db, Config{})
	s := c.Session()
	t1 := s.Begin()
	t1.Write("x", "ghost")
	t1.Abort()
	t2 := s.Begin()
	if _, ok, _ := t2.Read("x"); !ok {
		t.Fatal("fault did not leak the abort")
	}
	t2.Commit()
	_, err := c.History()
	var verr *history.ValidationError
	if !errors.As(err, &verr) || verr.Kind != history.ErrAbortedRead {
		t.Fatalf("err = %v, want ErrAbortedRead", err)
	}
}

// TestStampOrderMatchesEngineOrder runs contending sessions and checks
// that the recorded clock agrees with what each committed read saw: the
// writer it observed committed before the reader began, and no other
// committed writer of that key falls between the two. Stamps taken
// outside the engine call they describe break this under goroutines (a
// begin lands between another transaction's engine commit and its stamp),
// and Strong Session SI then rejects a correct engine's history.
func TestStampOrderMatchesEngineOrder(t *testing.T) {
	const sessions, txnsPerSession, keys = 12, 1500, 3
	c := New(mvcc.New(mvcc.Config{}), Config{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s := c.Session()
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < txnsPerSession; j++ {
				tx := s.Begin()
				k := string(rune('a' + (n+j)%keys))
				tx.Read(k)
				if j%2 == 0 {
					tx.Write(k, "v")
				}
				tx.Commit() // conflicts simply record aborts
			}
		}(i)
	}
	wg.Wait()
	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	commits := make(map[history.Key][]int64) // committed writers' stamps per key
	for _, tx := range h.Txns[1:] {
		if !tx.Committed() {
			continue
		}
		for _, op := range tx.Ops {
			if op.Kind == history.OpWrite {
				commits[op.Key] = append(commits[op.Key], tx.CommitAt)
			}
		}
	}
	for _, r := range h.Txns[1:] {
		if !r.Committed() {
			continue
		}
		for _, op := range r.Ops {
			if op.Kind != history.OpRead {
				continue
			}
			var seen int64 // genesis commits at 0
			if op.Observed != history.GenesisWriteID {
				ref, ok := h.WriterOf(op.Observed)
				if !ok {
					t.Fatalf("txn %d read an unknown write %d", r.ID, op.Observed)
				}
				seen = h.Txns[ref.Txn].CommitAt
			}
			if seen >= r.BeginAt {
				t.Fatalf("txn %d (begin %d) read %q from a writer stamped at commit %d", r.ID, r.BeginAt, op.Key, seen)
			}
			for _, at := range commits[op.Key] {
				if at > seen && at < r.BeginAt {
					t.Fatalf("txn %d (begin %d) read %q committed at %d, but another writer of it committed at %d in between",
						r.ID, r.BeginAt, op.Key, seen, at)
				}
			}
		}
	}
}
