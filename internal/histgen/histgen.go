// Package histgen generates histories from sampled schedules — the §9
// "viper as a test case generator" direction. Instead of running a real
// engine, it draws a total order ŝ of begins and commits (the object of
// Theorem 4), executes it abstractly — reads at begin observe the latest
// committed version, writes apply at commit, first committer wins — and
// records the outcome. The result is SI (indeed Strong SI, since the
// schedule doubles as the clock) *by construction*, making it a fountain
// of positive test cases; pairing it with package anomaly yields
// guaranteed-negative cases for grey-box testing of other checkers or of
// databases' own validators.
package histgen

import (
	"math/rand"
	"strconv"

	"viper/internal/history"
)

// Spec parameterizes generation.
type Spec struct {
	// Txns is the number of transactions to schedule.
	Txns int
	// Keys is the key-space size.
	Keys int
	// MaxConcurrency bounds how many transactions are in flight at once
	// (and thus the session count). Default 4.
	MaxConcurrency int
	// ReadsPerTxn and WritesPerTxn bound per-transaction operation counts
	// (each drawn uniformly from [0, bound]; defaults 3 and 2).
	ReadsPerTxn, WritesPerTxn int
	// AbortEvery aborts roughly one in this many transactions voluntarily
	// (0 disables voluntary aborts; conflict aborts always happen).
	AbortEvery int
	// Seed drives the schedule sampling.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.Txns == 0 {
		s.Txns = 100
	}
	if s.Keys == 0 {
		s.Keys = 8
	}
	if s.MaxConcurrency == 0 {
		s.MaxConcurrency = 4
	}
	if s.ReadsPerTxn == 0 {
		s.ReadsPerTxn = 3
	}
	if s.WritesPerTxn == 0 {
		s.WritesPerTxn = 2
	}
	return s
}

// key formats key i.
func key(i int) history.Key {
	var buf [24]byte
	return history.Key(strconv.AppendInt(append(buf[:0], "gk"...), int64(i), 10))
}

// active is one in-flight transaction during schedule execution.
type active struct {
	txn      *history.Txn
	session  int
	writes   map[history.Key]history.WriteID
	snapshot map[history.Key]history.WriteID // observed at begin
	doomed   bool                            // a conflicting writer committed first
}

// SI generates a history that is snapshot isolation by construction.
// The returned history is validated.
func SI(spec Spec) *history.History {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	h := history.New()

	committed := make(map[history.Key]history.WriteID) // current state
	var clock int64
	tick := func() int64 { clock++; return clock }

	sessions := make([]int32, spec.MaxConcurrency) // next seq per session
	freeSessions := make([]int, 0, spec.MaxConcurrency)
	for i := 0; i < spec.MaxConcurrency; i++ {
		freeSessions = append(freeSessions, i)
	}

	nextWID := history.WriteID(1)
	var inFlight []*active
	begun := 0

	beginOne := func() {
		sess := freeSessions[len(freeSessions)-1]
		freeSessions = freeSessions[:len(freeSessions)-1]
		t := &history.Txn{
			Session:      int32(sess),
			SeqInSession: sessions[sess],
			BeginAt:      tick(),
		}
		sessions[sess]++
		a := &active{txn: t, session: sess,
			writes:   make(map[history.Key]history.WriteID),
			snapshot: make(map[history.Key]history.WriteID)}

		// Reads observe the committed state at begin.
		nr := rng.Intn(spec.ReadsPerTxn + 1)
		for i := 0; i < nr; i++ {
			k := key(rng.Intn(spec.Keys))
			obs := committed[k]
			a.snapshot[k] = obs
			t.Ops = append(t.Ops, history.Op{Kind: history.OpRead, Key: k, Observed: obs})
		}
		// Writes are buffered until commit.
		nw := rng.Intn(spec.WritesPerTxn + 1)
		for i := 0; i < nw; i++ {
			k := key(rng.Intn(spec.Keys))
			if _, dup := a.writes[k]; dup {
				continue
			}
			wid := nextWID
			nextWID++
			a.writes[k] = wid
			t.Ops = append(t.Ops, history.Op{Kind: history.OpWrite, Key: k, WriteID: wid})
		}
		inFlight = append(inFlight, a)
		begun++
	}

	finishOne := func(idx int) {
		a := inFlight[idx]
		inFlight = append(inFlight[:idx], inFlight[idx+1:]...)
		a.txn.CommitAt = tick()
		abort := a.doomed
		if !abort && spec.AbortEvery > 0 && rng.Intn(spec.AbortEvery) == 0 {
			abort = true
		}
		if abort {
			a.txn.Status = history.StatusAborted
		} else {
			a.txn.Status = history.StatusCommitted
			for k, wid := range a.writes {
				committed[k] = wid
				// First committer wins: concurrent writers of k are doomed.
				for _, other := range inFlight {
					if _, conflicts := other.writes[k]; conflicts {
						other.doomed = true
					}
				}
			}
		}
		h.Append(a.txn)
		freeSessions = append(freeSessions, a.session)
	}

	for begun < spec.Txns || len(inFlight) > 0 {
		canBegin := begun < spec.Txns && len(inFlight) < spec.MaxConcurrency
		if canBegin && (len(inFlight) == 0 || rng.Intn(2) == 0) {
			beginOne()
		} else {
			finishOne(rng.Intn(len(inFlight)))
		}
	}

	if err := h.Validate(); err != nil {
		// The construction guarantees validity; a failure is a bug here.
		panic("histgen: generated history does not validate: " + err.Error())
	}
	return h
}
