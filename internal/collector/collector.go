// Package collector implements viper's history collectors (§2.1, §6): a
// client-side shim between workloads and the database that records every
// operation and return value, assigns each written value a unique write
// id, implements deletes as tombstone writes and inserts as
// read-modify-writes (§4), and stamps begins/commits with (possibly
// drifting) client clocks. The resulting history is what the checker
// consumes; the database below stays a black box.
package collector

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/history"
	"viper/internal/mvcc"
)

// Tombstone is the payload written in place of deleted values; range
// queries surface it so the checker can order deletes (§4).
const Tombstone = "__VIPER_TOMBSTONE__"

// ErrExists is returned by Insert when the key is live.
var ErrExists = errors.New("collector: key already exists")

// ErrNotFound is returned by Delete when the key is absent or already
// deleted.
var ErrNotFound = errors.New("collector: key not found")

// Config configures a collector.
type Config struct {
	// MaxClockDrift, when positive, offsets each session's clock by a
	// uniform random amount in [-MaxClockDrift, +MaxClockDrift], simulating
	// NTP-bounded skew between client machines (§5).
	MaxClockDrift time.Duration
	// Seed drives drift randomness.
	Seed int64
}

// Collector accumulates a history from concurrent client sessions.
// Safe for concurrent use; each Session belongs to one client goroutine.
type Collector struct {
	db  *mvcc.DB
	cfg Config

	clock   atomic.Int64 // shared logical nanosecond clock
	nextWID atomic.Int64

	// stampMu makes each engine begin/commit and its clock stamp one step,
	// so stamp order is engine order: a transaction that sees another's
	// commit in its snapshot also began after it in recorded time.
	stampMu sync.Mutex

	mu   sync.Mutex
	h    *history.History
	rng  *rand.Rand
	nses int32
}

// New wraps a database with history collection.
func New(db *mvcc.DB, cfg Config) *Collector {
	c := &Collector{db: db, cfg: cfg, h: history.New(), rng: rand.New(rand.NewSource(cfg.Seed))}
	c.nextWID.Store(1)
	return c
}

// now advances the shared clock; per-session drift is added by callers.
func (c *Collector) now() int64 { return c.clock.Add(1000) }

// Session opens a client session (a database connection in the paper's
// terms). Transactions within a session are issued synchronously.
func (c *Collector) Session() *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nses
	c.nses++
	var drift int64
	if d := c.cfg.MaxClockDrift.Nanoseconds(); d > 0 {
		drift = c.rng.Int63n(2*d+1) - d
	}
	return &Session{c: c, id: id, drift: drift}
}

// History finalizes and validates the collected history.
func (c *Collector) History() (*history.History, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.h.Validate(); err != nil {
		return nil, err
	}
	return c.h, nil
}

// RawHistory returns the collected history without validating it, for
// fault-injection runs whose histories may be deliberately malformed
// (e.g. reads of aborted writes).
func (c *Collector) RawHistory() *history.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h
}

// Session is one client connection.
type Session struct {
	c     *Collector
	id    int32
	drift int64
	seq   int32
	cur   *Txn
}

// Begin starts a transaction; the previous one must be finished (sessions
// are synchronous).
func (s *Session) Begin() *Txn {
	if s.cur != nil && !s.cur.done {
		panic("collector: session has an unfinished transaction")
	}
	t := &Txn{s: s, rec: &history.Txn{Session: s.id, SeqInSession: s.seq}}
	s.c.stampMu.Lock()
	t.db = s.c.db.Begin()
	t.rec.BeginAt = s.c.now() + s.drift
	s.c.stampMu.Unlock()
	s.seq++
	s.cur = t
	return t
}

// Txn is a collected transaction.
type Txn struct {
	s    *Session
	db   *mvcc.Txn
	rec  *history.Txn
	done bool
}

// encode embeds a write id into a stored value.
func encode(wid history.WriteID, payload string) string {
	return strconv.FormatInt(int64(wid), 10) + "|" + payload
}

// decode extracts the write id and payload from a stored value; absent or
// foreign values decode to the genesis write id.
func decode(val string) (history.WriteID, string) {
	i := strings.IndexByte(val, '|')
	if i < 0 {
		return history.GenesisWriteID, val
	}
	wid, err := strconv.ParseInt(val[:i], 10, 64)
	if err != nil {
		return history.GenesisWriteID, val
	}
	return history.WriteID(wid), val[i+1:]
}

// Read reads key, returning the payload and whether the key is live (a
// tombstoned or absent key reads as not-ok). The observation is recorded.
func (t *Txn) Read(key string) (string, bool, error) {
	val, _, err := t.db.Get(key)
	if err != nil {
		return "", false, err
	}
	wid, payload := decode(val)
	tomb := payload == Tombstone
	t.rec.Ops = append(t.rec.Ops, history.Op{
		Kind: history.OpRead, Key: history.Key(key),
		Observed: wid, ObservedTombstone: tomb,
	})
	if wid == history.GenesisWriteID || tomb {
		return "", false, nil
	}
	return payload, true, nil
}

// Write unconditionally writes key with a fresh write id.
func (t *Txn) Write(key, payload string) error {
	wid := history.WriteID(t.s.c.nextWID.Add(1) - 1)
	if err := t.db.Put(key, encode(wid, payload)); err != nil {
		return err
	}
	t.rec.Ops = append(t.rec.Ops, history.Op{Kind: history.OpWrite, Key: history.Key(key), WriteID: wid})
	return nil
}

// Insert writes key only if it is absent or tombstoned; the guarding read
// is recorded (it is what manifests insert/delete order to the checker).
func (t *Txn) Insert(key, payload string) error {
	val, live, err := t.db.Get(key)
	if err != nil {
		return err
	}
	wid, p := decode(val)
	t.rec.Ops = append(t.rec.Ops, history.Op{
		Kind: history.OpRead, Key: history.Key(key),
		Observed: wid, ObservedTombstone: p == Tombstone,
	})
	if live && p != Tombstone && wid != history.GenesisWriteID {
		return ErrExists
	}
	nwid := history.WriteID(t.s.c.nextWID.Add(1) - 1)
	if err := t.db.Put(key, encode(nwid, payload)); err != nil {
		return err
	}
	t.rec.Ops = append(t.rec.Ops, history.Op{Kind: history.OpInsert, Key: history.Key(key), WriteID: nwid})
	return nil
}

// Delete replaces a live key's value with a tombstone (§4); the guarding
// read is recorded. Deleting an absent/tombstoned key fails.
func (t *Txn) Delete(key string) error {
	val, _, err := t.db.Get(key)
	if err != nil {
		return err
	}
	wid, p := decode(val)
	t.rec.Ops = append(t.rec.Ops, history.Op{
		Kind: history.OpRead, Key: history.Key(key),
		Observed: wid, ObservedTombstone: p == Tombstone,
	})
	if wid == history.GenesisWriteID || p == Tombstone {
		return ErrNotFound
	}
	nwid := history.WriteID(t.s.c.nextWID.Add(1) - 1)
	if err := t.db.Put(key, encode(nwid, Tombstone)); err != nil {
		return err
	}
	t.rec.Ops = append(t.rec.Ops, history.Op{Kind: history.OpDelete, Key: history.Key(key), WriteID: nwid})
	return nil
}

// KV is a live key-value pair returned to range-query clients.
type KV struct {
	Key, Val string
}

// Range performs a key-range query over [lo, hi]. Tombstoned keys are
// recorded in the history (the checker needs them) but filtered from the
// client's result.
func (t *Txn) Range(lo, hi string) ([]KV, error) {
	kvs, err := t.db.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	op := history.Op{Kind: history.OpRange, Lo: history.Key(lo), Hi: history.Key(hi)}
	var out []KV
	for _, kv := range kvs {
		wid, payload := decode(kv.Val)
		tomb := payload == Tombstone
		if wid == history.GenesisWriteID && payload == "" {
			continue // never-written key surfaced by a buggy engine
		}
		op.Result = append(op.Result, history.Version{
			Key: history.Key(kv.Key), WriteID: wid, Tombstone: tomb,
		})
		if !tomb && !kv.Deleted {
			out = append(out, KV{Key: kv.Key, Val: payload})
		}
	}
	t.rec.Ops = append(t.rec.Ops, op)
	return out, nil
}

// Commit commits the transaction and records the outcome. A first-
// committer-wins conflict aborts and is recorded as an abort; the conflict
// error is returned.
func (t *Txn) Commit() error {
	if t.done {
		return mvcc.ErrDone
	}
	t.done = true
	t.s.c.stampMu.Lock()
	err := t.db.Commit()
	t.rec.CommitAt = t.s.c.now() + t.s.drift
	t.s.c.stampMu.Unlock()
	if err != nil {
		t.rec.Status = history.StatusAborted
	} else {
		t.rec.Status = history.StatusCommitted
	}
	t.s.c.appendTxn(t.rec)
	return err
}

// Abort aborts the transaction and records it.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.db.Abort()
	t.rec.CommitAt = t.s.c.now() + t.s.drift
	t.rec.Status = history.StatusAborted
	t.s.c.appendTxn(t.rec)
}

func (c *Collector) appendTxn(rec *history.Txn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.h.Append(rec)
}

// String renders collector identity for diagnostics.
func (c *Collector) String() string {
	return fmt.Sprintf("collector(%d sessions, %d txns)", c.nses, c.h.Len())
}
