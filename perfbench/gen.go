package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"viper/internal/anomaly"
	"viper/internal/collector"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/mvcc"
	programs "viper/internal/workload"
)

// Spec describes one generated BlindW input. Generation is a pure
// function of the Spec: the same Spec yields a byte-identical log.
type Spec struct {
	Txns      int     // transactions issued (committed and aborted)
	ReadRatio float64 // share of read-only transactions: 0.5 BlindW-RW, 0.9 BlindW-RM
	Keys      int     // key-space size
	Clients   int     // virtual clients interleaved by the scheduler
	Seed      int64
	// NoTimestamps zeroes every begin/commit stamp after generation, so
	// the checker cannot use the timestamp order.
	NoTimestamps bool
	// LostUpdate appends one lost update (anomaly.LostUpdate), which makes
	// the history violate SI.
	LostUpdate bool
}

// vclient is one virtual client: a collector session, its own program
// stream, and the transaction it is part-way through.
type vclient struct {
	sess *collector.Session
	rng  *rand.Rand
	tx   *collector.Txn
	prog programs.Txn
	pc   int // next op of prog; len(prog.Ops) means commit next
}

// Generate runs the Spec's BlindW programs against a fresh mvcc engine
// through a collector. Unlike runner.Run, whose goroutine interleavings
// change from run to run, one goroutine drives every client: a seeded
// scheduler picks which client takes its next step (begin, one operation,
// or commit), so concurrency, conflicts and aborts are reproducible.
func Generate(spec Spec) (*history.History, error) {
	db := mvcc.New(mvcc.Config{Seed: spec.Seed})
	col := collector.New(db, collector.Config{Seed: spec.Seed})
	gen := &programs.BlindW{ReadRatio: spec.ReadRatio, Keys: spec.Keys}
	sched := rand.New(rand.NewSource(spec.Seed))
	clients := make([]vclient, spec.Clients)
	for i := range clients {
		clients[i] = vclient{sess: col.Session(), rng: rand.New(rand.NewSource(spec.Seed + int64(i+1)*7919))}
	}
	for issued, open := 0, 0; issued < spec.Txns || open > 0; {
		c := &clients[sched.Intn(len(clients))]
		switch {
		case c.tx == nil:
			if issued == spec.Txns {
				continue
			}
			c.prog, c.tx, c.pc = gen.Next(c.rng), c.sess.Begin(), 0
			issued++
			open++
		case c.pc < len(c.prog.Ops):
			// BlindW programs only read and blindly write; an operation
			// error is impossible on the correct engine.
			op := c.prog.Ops[c.pc]
			var err error
			if op.Kind == programs.OpRead {
				_, _, err = c.tx.Read(op.Key)
			} else {
				err = c.tx.Write(op.Key, op.Payload)
			}
			if err != nil {
				return nil, fmt.Errorf("generate: %w", err)
			}
			c.pc++
		default:
			// A first-committer-wins conflict is recorded as an abort.
			_ = c.tx.Commit()
			c.tx = nil
			open--
		}
	}
	h, err := col.History()
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if spec.NoTimestamps {
		for _, t := range h.Txns[1:] {
			t.BeginAt, t.CommitAt = 0, 0
		}
	}
	if spec.LostUpdate {
		anomaly.Inject(h, anomaly.LostUpdate)
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("generate: lost update: %w", err)
		}
	}
	return h, nil
}

// Input is a generated history together with its JSON-lines log, the
// bytes every workload hands to the system under test.
type Input struct {
	Log      []byte
	Txns     int // committed
	Aborted  int
	Sessions int
	SHA256   string
}

// Encode renders h as the histio log and fingerprints it.
func Encode(h *history.History) (*Input, error) {
	var buf bytes.Buffer
	if err := histio.Encode(&buf, h); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	st := h.ComputeStats()
	sum := sha256.Sum256(buf.Bytes())
	return &Input{
		Log:      buf.Bytes(),
		Txns:     st.Txns,
		Aborted:  st.Aborted,
		Sessions: st.Sessions,
		SHA256:   hex.EncodeToString(sum[:]),
	}, nil
}
