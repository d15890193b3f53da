// Online incremental checking: a long-lived session that extends its
// BC-polygraph construction state — and, when sound, its solver state —
// as transactions arrive, instead of recomputing everything from genesis
// at every audit.
//
// The readers index and the per-key writer lists persist across audits
// and absorb each appended batch, which dirties the keys it writes or
// reads. An audit then takes one of two paths:
//
//   - The cold path (window.go), for the first audit and for every audit
//     at a level with real-time or session obligations (warmCapable):
//     the window stage builds a polygraph from the indexes — every writer
//     pair when a timestamp stage will run, otherwise only the pairs each
//     §3.5 pass can encode — and runs the one-shot check's stages on it.
//     It leaves the dirty keys dirty. Build and CheckHistory are one-audit
//     sessions.
//   - The warm path, for later audits of AdyaSI and Serializability
//     sessions: it regenerates each dirty key's emission record (known
//     edges and constraints, in emission order; parallel.go) and encodes
//     the records' deltas into a persistent solver. The session keeps no
//     records: what a clean key contributed lives on in the warm state.
//     The O(chains²)-per-key constraint pass — the dominant construction
//     cost — reruns for the dirty keys, and for every written key on a
//     rebuild: the first warm audit, one after a checkpoint, and one
//     after a chain repartition, which covers almost every warm audit of
//     a read-modify-write stream.
//
// The warm path keeps one SAT solver and one acyclicity theory alive for
// the whole session: learned clauses, VSIDS activities, saved phases, and
// the Pearce–Kelly topological order all carry over, and an audit adds
// only the new constants, edge variables, and clauses. This is sound
// exactly when the audit-to-audit delta is monotone clause addition:
//
//   - Known edges only ever accrue, and theory constants are monotone:
//     more edges can only shrink the model set.
//   - A constraint's sides only grow (new readers of a chain tail), and
//     its encoding extends by one implication per new edge on the
//     selector literal it was encoded with: sel → first side, ¬sel →
//     second side. An XOR-encoded constraint's selector is its first
//     edge's literal, whose negation the XOR already ties to the second
//     edge.
//   - Learned clauses are logical consequences of the formula they were
//     learned from, and the formula only gains clauses, so they remain
//     valid in every later round.
//
// The monotonicity breaks when a key's writer-chain partition changes
// (e.g. a new read-modify-write merges two chains, or combining falls back
// to singletons): previously encoded pair constraints then reference stale
// chain boundaries. The session detects this by comparing each dirtied
// key's chain partition against the one it last recorded. When any prior
// chain is not preserved verbatim it drops the solver, regenerates the
// written keys the audit left clean, and re-encodes the whole session: a
// rebuild, as on the first warm audit and after a checkpoint.
//
// After the encoding a warm audit is the cold check (check.go) over the
// session's known list and constraints, on the carried solver. The known
// list's topological sort under solveRun.less is ŝ, and a cycle rejects.
// Pre-solve resolution (resolvePolygraph, no large folds) runs next, ahead
// of the timestamp stage, and its forced edges join the known list. The
// timestamp stage and the §3.5 passes (solveRun.solve) follow; their
// pruned sides, stride edges and timestamp-chosen sides form one guarded
// batch that is retired before the next pass or audit, never a theory
// constant, which would be irrevocable. The theory takes the known list's
// new edges as constants at the next solver pass, so an audit decided
// without one inserts none. No resolution state carries over between
// audits: constants only accrue, so each audit's fixpoint rediscovers
// every earlier discharge. When the solver refutes, the evidence pass
// (solveRun.evidence) reruns the fixpoint with large folds over the
// session's known list and constraints to name the cycle.
//
// Rejection is cached: SI (and the other checked levels) are closed under
// history prefixes, so once a validated prefix is rejected every extension
// is rejected too, and the session returns the rejecting report from then
// on. (Validation itself is NOT monotone — a read of a not-yet-appended
// write is a validation error on the prefix and legal on the extension —
// which is why callers re-validate the full history before every audit,
// and an audit refuses a history appended to since its last Validate.)
package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"viper/internal/acyclic"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/sat"
)

// rangeObs remembers a committed range query so that keys first written
// after the query was indexed can retroactively contribute the genesis
// observations the batch build derives: a range query silent about a
// written key inside its bounds read that key's initial version.
type rangeObs struct {
	reader   history.TxnID
	lo, hi   history.Key
	returned map[history.Key]bool
}

// warmState is the persistent solver + theory reused across audits.
type warmState struct {
	s  *sat.Solver
	th *acyclic.EdgeTheory
	// ids resolves a constraint's cross-audit identity to its index in
	// cons. The key level is split off so the hot per-constraint lookup
	// hashes two edges, not a string.
	ids map[history.Key]map[[2]Edge]int32
	// cons holds the constraints in creation order, with their sides as
	// the last regeneration of their key recorded them. For a fixed
	// identity the side lists are prefix-stable across regenerations —
	// they start with the chain pair's leading edge and extend only with
	// reader edges in arrival order (a chain-boundary change mints a new
	// identity, and a chain repartition drops the warm state entirely) —
	// so growth is recognized by length alone and new edges are exactly
	// the regenerated list's suffix. Kind1/Kind2/Key carry each side's
	// provenance so resolution-forced edges enter the known graph like
	// construction-time forcing would.
	cons []Constraint
	// sel holds each constraint's selector literal once a pass encoded it
	// (solveRun.sel).
	sel []sat.Lit
	// known is the session's known list, deduplicated, with provenance:
	// intra, read-dependency and recorded known edges, and every edge
	// resolution forced. It is each audit's known graph. The theory holds
	// its first nconst edges as constants; the next solver pass inserts
	// the rest.
	known  knownIndex
	nconst int
	// intraHigh is the h.Txns index up to which intra edges are listed.
	intraHigh int
}

// Incremental is a long-lived checking session over a growing history.
// Append transactions (Append / the owned History), then Audit; each audit
// reuses the construction and solver state of the previous ones. The
// session is not safe for concurrent use.
//
// Audit requires the full history to be validated first, and panics
// otherwise; the public viper.Checker wrapper validates on every audit.
// A warm audit's Solver, EdgeVars, Reorders and Constraints describe the
// session's solver: they are session-wide, Constraints counted before
// known-edge elision, so they compare across audits of one session
// rather than to a from-scratch batch report. Its resolution and
// timestamp counters count that audit's work, as on every report.
// Verdicts and witnesses are always equivalent to the batch path on the
// same history.
type Incremental struct {
	opts Options
	h    *history.History

	// Persistent construction state.
	indexed   int // h.Txns high-water mark already folded into the indexes
	g1bHigh   int // h.Txns high-water mark already screened for G1b reads
	readers   map[history.Key]map[history.TxnID][]history.TxnID
	writers   map[history.Key][]history.TxnID
	knownKeys map[history.Key]bool
	ranges    []rangeObs
	dirty     map[history.Key]bool
	chainSigs map[history.Key][][]history.TxnID

	warm     *warmState
	rejected *Report // cached graph rejection (levels are prefix-closed)
	audits   int

	// liveOps counts operations in the live window (Append adds, Checkpoint
	// subtracts); lastAccept is the most recent audit's accepting report,
	// nil after any non-accept, append, or checkpoint — Checkpoint requires
	// it, since the certificate freezes its witness order.
	liveOps    int64
	lastAccept *Report

	// lastSnap is the most recently published progress snapshot. It is the
	// one piece of session state other goroutines may read (Progress): an
	// immutable value behind an atomic pointer, so a reader never shares
	// mutable state with a running audit.
	lastSnap atomic.Pointer[obs.Snapshot]
}

// NewIncremental returns an empty checking session. The zero history
// contains only genesis; use Append (or write to History()) to grow it.
func NewIncremental(opts Options) *Incremental {
	return &Incremental{
		opts:      opts,
		h:         history.New(),
		indexed:   1,
		g1bHigh:   1,
		readers:   make(map[history.Key]map[history.TxnID][]history.TxnID),
		writers:   make(map[history.Key][]history.TxnID),
		knownKeys: make(map[history.Key]bool),
		dirty:     make(map[history.Key]bool),
		chainSigs: make(map[history.Key][][]history.TxnID),
	}
}

// sessionOver returns a session whose history is h, for one-shot use:
// its first update indexes all of h.
func sessionOver(h *history.History, opts Options) *Incremental {
	inc := NewIncremental(opts)
	inc.h = h
	return inc
}

// Progress returns the most recently published progress snapshot: the
// final counters of the last audit, or — while an audit with a Progress
// callback runs — the latest sampling tick. Unlike the rest of the
// session, Progress is safe to call from any goroutine at any time. Before
// the first audit it returns a zero snapshot with Phase "idle".
func (inc *Incremental) Progress() obs.Snapshot {
	if p := inc.lastSnap.Load(); p != nil {
		return *p
	}
	return obs.Snapshot{Phase: "idle"}
}

// publish stamps the session coordinates onto a snapshot, stores it for
// Progress readers, and forwards it to the configured callback. Heap usage
// is only measured when a callback is configured (ReadMemStats briefly
// stops the world; a bare boundary store should stay cheap).
func (inc *Incremental) publish(snap obs.Snapshot) {
	snap.Audit = inc.audits
	snap.Txns = inc.h.Len()
	if inc.opts.Progress != nil && snap.HeapInUse == 0 {
		snap.HeapInUse = obs.HeapInUse()
	}
	inc.lastSnap.Store(&snap)
	if inc.opts.Progress != nil {
		inc.opts.Progress(snap)
	}
}

// stampGauges writes the session memory gauges onto a report: live-window
// history footprint and the checkpoint certificate's coordinates (a warm
// audit's resolution stamps the closure's footprint itself). Called at the
// end of every audit so reports and progress snapshots prove (or
// disprove) that checkpointing bounds the session.
func (inc *Incremental) stampGauges(rep *Report) {
	rep.LiveTxns = inc.h.Len()
	rep.HistoryBytes = inc.h.EstimateBytes()
	if f := inc.h.Fence(); f != nil {
		rep.Checkpoints = f.Checkpoints
		rep.FencedTxns = f.Txns
		rep.CertBytes = f.Bytes()
		rep.TxnIDBase = f.Base
	} else {
		rep.Checkpoints, rep.FencedTxns, rep.CertBytes, rep.TxnIDBase = 0, 0, 0, 0
	}
}

// obsOpts returns the session options with the Progress callback wrapped
// to stamp session coordinates and keep lastSnap current — the cold path
// hands these to CheckPolygraph, whose sampler knows nothing about audits.
func (inc *Incremental) obsOpts() Options {
	o := inc.opts
	if user := o.Progress; user != nil {
		audit, txns := inc.audits, inc.h.Len()
		o.Progress = func(s obs.Snapshot) {
			s.Audit, s.Txns = audit, txns
			inc.lastSnap.Store(&s)
			user(s)
		}
	}
	return o
}

// History returns the session's owned history.
func (inc *Incremental) History() *history.History { return inc.h }

// Append adds a transaction to the session's history, assigning its id.
func (inc *Incremental) Append(t *history.Txn) history.TxnID {
	inc.liveOps += int64(len(t.Ops))
	inc.lastAccept = nil
	return inc.h.Append(t)
}

// Len returns the number of appended transactions (genesis excluded; the
// live window only, after checkpoints).
func (inc *Incremental) Len() int { return inc.h.Len() }

// LiveOps returns the operation count of the live window — what a
// bounded-session quota should meter, since checkpoints reclaim it.
func (inc *Incremental) LiveOps() int64 { return inc.liveOps }

// ser reports whether the session uses the transaction-level mapping.
func (inc *Incremental) ser() bool { return inc.opts.Level == Serializability }

// numNodes is the current event-node count (before auxiliary nodes).
func (inc *Incremental) numNodes() int32 { return NodeCount(inc.h, inc.opts.Level) }

// warmCapable reports whether the configured options admit the persistent
// solver at all: levels with real-time obligations restructure their
// auxiliary suffix-chain edges on every append (not monotone).
func (inc *Incremental) warmCapable() bool {
	return inc.opts.Level == AdyaSI || inc.opts.Level == Serializability
}

// Audit checks the full current history, reusing state from prior audits.
// The history must have been validated (history.Validate) since the last
// append; Audit panics otherwise. The verdict always equals CheckHistory
// on an identical history.
func (inc *Incremental) Audit() *Report { return inc.AuditContext(context.Background()) }

// AuditContext is Audit under a cancellation context: ctx's deadline
// bounds the audit like Options.Timeout (whichever expires first), and
// canceling ctx interrupts a running solve — the audit then returns
// Outcome Timeout promptly instead of running to completion. A canceled
// audit leaves the session consistent: the construction state keeps the
// delta it absorbed, the warm solver (if any) stays sound (interruption
// never unlearns clauses), and a later audit simply retries the solve.
func (inc *Incremental) AuditContext(ctx context.Context) *Report {
	if inc.opts.Level.Polynomial() {
		return checkPolynomial(inc.h, inc.opts)
	}
	auditReg := inc.opts.Tracer.Start("audit")
	auditReg.SetAttr("audit", int64(inc.audits))
	auditReg.SetAttr("txns", int64(inc.h.Len()))
	defer auditReg.End()

	constructStart := time.Now()
	inc.publish(obs.Snapshot{Phase: "construct"})
	conReg := inc.opts.Tracer.Start("construct")
	inc.update()

	// G1b screen (ra.go): an intermediate read can never replay under any
	// event schedule (commits install last-write-per-key, so VerifyWitness
	// would fail the accept), and the polygraph conflates a transaction's
	// writes of a key into its final version — without this screen the
	// solver could accept what PL-2 rejects, breaking the isolation
	// lattice's RC ⊂ AdyaSI monotonicity. A read's named writer is
	// immutable once appended, so only new transactions are scanned, and a
	// hit is cached like any other rejection (G1b is prefix-monotone).
	if inc.rejected == nil {
		g1bReg := inc.opts.Tracer.Start("g1b")
		ev := findG1b(inc.h, inc.g1bHigh)
		g1bReg.End()
		if ev != nil {
			inc.rejected = &Report{
				Level:   inc.opts.Level,
				Outcome: Reject,
				Anomaly: ev.String(),
				Nodes:   int(inc.numNodes()),
			}
		}
	}
	inc.g1bHigh = len(inc.h.Txns)

	if inc.rejected != nil {
		conReg.End()
		inc.stampGauges(inc.rejected)
		final := inc.rejected.Snapshot()
		final.ElapsedNS = int64(time.Since(constructStart))
		inc.publish(final)
		inc.audits++
		return inc.rejected
	}

	var rep *Report
	switch {
	case inc.warmCapable() && inc.audits > 0:
		keys, recs, regenWall, regenCPU, workers := inc.regen()
		// auditWarm books construction as ending at its entry; close the
		// span to match.
		conReg.End()
		rep = inc.auditWarm(ctx, constructStart, keys, recs, regenWall, regenCPU, workers)
	default:
		conReg.End()
		rep = inc.auditWindow(ctx, constructStart)
	}
	if rep.Outcome == Reject {
		// A rejection reached under a live context is a real verdict (the
		// solver only answers Unsat from a completed refutation), so caching
		// it stays sound even for audits that were later canceled.
		inc.rejected = rep
	}
	if rep.Outcome == Accept && rep.WitnessPositions != nil {
		inc.lastAccept = rep
	} else {
		inc.lastAccept = nil
	}
	inc.stampGauges(rep)
	final := rep.Snapshot()
	final.ElapsedNS = int64(time.Since(constructStart))
	inc.publish(final)
	inc.audits++
	return rep
}

// addReader records one external observation (key, writer → reader),
// deduplicated exactly like the batch read collection, and dirties the key.
func (inc *Incremental) addReader(key history.Key, w, r history.TxnID) {
	if w == r {
		return
	}
	m := inc.readers[key]
	if m == nil {
		m = make(map[history.TxnID][]history.TxnID)
		inc.readers[key] = m
	}
	for _, prev := range m[w] {
		if prev == r {
			return
		}
	}
	m[w] = append(m[w], r)
	inc.dirty[key] = true
}

// mustBeValidated panics when transactions were appended to h since its
// last successful Validate: the indexes every check reads (Keys, WriterOf)
// miss them, and a check would silently skip their reads and keys.
func mustBeValidated(h *history.History) {
	if n := h.Validated(); n < len(h.Txns) {
		panic(fmt.Sprintf("core: txn %d and later were appended after the history's last successful Validate; validate it before checking", n))
	}
}

// update folds transactions appended since the last audit into the
// persistent indexes, marking the keys they touch dirty. Processing new
// transactions in id order keeps every per-(key, writer) reader list in
// the same order the batch read collection produces.
func (inc *Incremental) update() {
	h := inc.h
	mustBeValidated(h)
	if inc.indexed >= len(h.Txns) {
		return
	}
	newTxns := h.Txns[inc.indexed:]
	inc.indexed = len(h.Txns)

	// New committed writers first: they define which keys are new, which
	// older range queries must retroactively observe. A transaction's
	// repeated writes of a key deduplicate against the writer list's
	// tail: no later transaction can have appended in between.
	var newKeys []history.Key
	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		for i := range t.Ops {
			switch t.Ops[i].Kind {
			case history.OpWrite, history.OpInsert, history.OpDelete:
				key := t.Ops[i].Key
				if ws := inc.writers[key]; len(ws) > 0 && ws[len(ws)-1] == t.ID {
					continue
				}
				inc.writers[key] = append(inc.writers[key], t.ID)
				inc.dirty[key] = true
				if !inc.knownKeys[key] {
					inc.knownKeys[key] = true
					newKeys = append(newKeys, key)
				}
			}
		}
	}
	if len(newKeys) > 0 {
		sort.Slice(newKeys, func(i, j int) bool { return newKeys[i] < newKeys[j] })
		for _, ro := range inc.ranges {
			for _, k := range newKeys {
				if k >= ro.lo && k <= ro.hi && !ro.returned[k] {
					inc.addReader(k, history.GenesisID, ro.reader)
				}
			}
		}
	}

	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // unreachable: h is validated (mustBeValidated)
			}
			inc.addReader(key, ref.Txn, t.ID)
		})
		// A range query's returned versions are reads (ExternalReads
		// above). Thanks to the tombstone discipline (§4), so is every
		// written key inside its bounds that the result omits: a correct
		// collector setup never truly deletes keys, so absence can only
		// mean "never inserted", i.e. the query read the initial version.
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
				if !returned[k] {
					inc.addReader(k, history.GenesisID, t.ID)
				}
			}
			inc.ranges = append(inc.ranges, rangeObs{reader: t.ID, lo: op.Lo, hi: op.Hi, returned: returned})
		}
	}
}

// regenKey rebuilds one key's emission record and chain partition from the
// current indexes. lite is only consulted for the node mapping (classify);
// it is shared read-only across workers.
//
// The record holds the key's known part (keyKnown) and the constraints of
// every pair of its non-genesis chains (Figure 4 lines 37–50, at
// writer-chain granularity): the window's pairs at radius 0, here in chain
// order. One reservation sizes both, with knownOps and pairsSize.
func (inc *Incremental) regenKey(lite *Polygraph, key history.Key, combine, coalesce bool) (*KeyRecord, [][]history.TxnID) {
	byWriter := inc.readers[key]
	rec := &KeyRecord{}
	recordReadDeps(lite, byWriter, rec)
	kc := lite.keyChains(inc.writers[key], byWriter, combine)
	ext := chainExtents(kc.real, byWriter)
	ops, edges := pairsSize(ext, 0, coalesce)
	kr := keyRecorder{pg: lite, rec: rec}
	kr.reserve(kc.knownOps(byWriter)+ops, edges)
	lite.keyKnown(key, kc, byWriter, kr)
	lite.recordPairs(key, ext, 0, coalesce, kr)
	if len(rec.Sides) == 0 {
		rec.Sides = nil // every side held trivially or was impossible
	}
	sig := make([][]history.TxnID, len(kc.all))
	for i, c := range kc.all {
		sig[i] = c.members
	}
	return rec, sig
}

// regen rebuilds the emission records of every dirty written key, and of
// every written key when the session has no warm state, and returns them
// in key order for auditWarm to encode. A chain partition that was not
// preserved verbatim drops the warm state, and the written keys the first
// round left clean are regenerated too. It also returns the pass's wall
// time, summed per-goroutine busy time, and the resolved worker count for
// the report's construction accounting.
func (inc *Incremental) regen() (keys []history.Key, recs []*KeyRecord, wall, cpu time.Duration, workers int) {
	if inc.warm == nil {
		for k := range inc.writers {
			inc.dirty[k] = true
		}
	}
	for k := range inc.dirty {
		if len(inc.writers[k]) > 0 {
			keys = append(keys, k) // never-written keys have nothing to emit
		}
	}
	inc.dirty = make(map[history.Key]bool)
	if len(keys) == 0 {
		return nil, nil, 0, 0, 1
	}
	workers = inc.opts.workers()
	recs, preserved, wall, cpu := inc.regenKeys(keys, workers)
	if preserved || inc.warm == nil {
		return keys, recs, wall, cpu, workers
	}

	// A repartition: the audit re-encodes the whole session from a fresh
	// solver, so it needs every written key's record.
	inc.warm = nil
	got := make(map[history.Key]*KeyRecord, len(inc.writers))
	for i, k := range keys {
		got[k] = recs[i]
	}
	var rest []history.Key
	for k, ws := range inc.writers {
		if got[k] == nil && len(ws) > 0 {
			rest = append(rest, k)
		}
	}
	more, _, w, c := inc.regenKeys(rest, workers)
	for i, k := range rest {
		got[k] = more[i]
	}
	keys = append(keys, rest...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs = make([]*KeyRecord, len(keys))
	for i, k := range keys {
		recs[i] = got[k]
	}
	return keys, recs, wall + w, cpu + c, workers
}

// regenKeys sorts keys and regenerates their records under the
// work-stealing pool (per-key records are independent, and per-key costs
// vary wildly). It records each key's chain partition and reports whether
// every earlier one was preserved.
func (inc *Incremental) regenKeys(keys []history.Key, workers int) (recs []*KeyRecord, preserved bool, wall, cpu time.Duration) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	combine, coalesce := !inc.opts.DisableCombineWrites, !inc.opts.DisableCoalesce
	lite := &Polygraph{ser: inc.ser()}
	recs = make([]*KeyRecord, len(keys))
	sigs := make([][][]history.TxnID, len(keys))
	wall, cpu = forEachKey(len(keys), workers, func(i int) {
		recs[i], sigs[i] = inc.regenKey(lite, keys[i], combine, coalesce)
	})
	preserved = true
	for i, key := range keys {
		if old, ok := inc.chainSigs[key]; ok && !chainsPreserved(old, sigs[i]) {
			preserved = false
		}
		inc.chainSigs[key] = sigs[i]
	}
	return recs, preserved, wall, cpu
}

// chainsPreserved reports whether every old chain appears verbatim (same
// head, same members, same order) in the new partition. New chains over
// new writers are the only permitted difference; anything else means
// previously encoded pair constraints reference stale chain boundaries.
func chainsPreserved(old, cur [][]history.TxnID) bool {
	heads := make(map[history.TxnID][]history.TxnID, len(cur))
	for _, c := range cur {
		heads[c[0]] = c
	}
	for _, o := range old {
		c, ok := heads[o[0]]
		if !ok || len(c) != len(o) {
			return false
		}
		for i := range o {
			if c[i] != o[i] {
				return false
			}
		}
	}
	return true
}

// knownIndex is an append-only list of known edges with their provenance,
// indexed by edge: the lookup behind counterexample cycles, and the warm
// session's known list.
type knownIndex struct {
	at    acyclic.EdgeIndex // edge → position in edges
	edges []KnownEdge
}

// indexKnown indexes edges in place (an edge listed twice keeps its first
// position). The index shares edges read-only: a later add appends to a
// copy.
func indexKnown(edges []KnownEdge) *knownIndex {
	x := &knownIndex{edges: edges[:len(edges):len(edges)]}
	x.at.Reserve(len(edges))
	for i, ke := range edges {
		x.at.Add(ke.From, ke.To, int32(i))
	}
	return x
}

// add appends ke unless its edge is already present, and reports whether
// it did.
func (x *knownIndex) add(ke KnownEdge) bool {
	if !x.at.Add(ke.From, ke.To, int32(len(x.edges))) {
		return false
	}
	x.edges = append(x.edges, ke)
	return true
}

// provenance returns e with its recorded kind and key, or bare when the
// index does not hold it.
func (x *knownIndex) provenance(e Edge) KnownEdge {
	if i, ok := x.at.Get(e.From, e.To); ok {
		return x.edges[i]
	}
	return KnownEdge{Edge: e}
}

// cycleEvidence renders a cycle of must-hold edges — node path v..u plus
// the closing edge u→v — with each edge's provenance.
func cycleEvidence(path []int32, closing KnownEdge, known *knownIndex) []KnownEdge {
	out := make([]KnownEdge, 0, len(path))
	for i := 0; i+1 < len(path); i++ {
		out = append(out, known.provenance(Edge{path[i], path[i+1]}))
	}
	return append(out, closing)
}

// auditWarm runs one audit on the carried solver. It encodes what changed
// since the last audit, keys and recs being the records regen
// regenerated (every written key's, on a rebuild): new known edges join
// the session's known list, new constraints get an identity, and a side
// that grew gets one implication per new edge. It then runs the cold
// check's schedule, pre-solve resolution and stages over the session's
// known list and constraints, on the carried solver, theory and
// selectors.
func (inc *Incremental) auditWarm(ctx context.Context, constructStart time.Time, keys []history.Key, recs []*KeyRecord, regenWall, regenCPU time.Duration, workers int) *Report {
	opts := inc.obsOpts()
	h := inc.h
	construct := time.Since(constructStart)

	var rebuild int64
	if inc.warm == nil {
		rebuild = 1
		w := &warmState{
			s:   sat.New(),
			th:  acyclic.NewEdgeTheory(0),
			ids: make(map[history.Key]map[[2]Edge]int32),
		}
		w.s.SetTheory(w.th)
		inc.warm = w
	}
	w := inc.warm

	encodeStart := time.Now()
	encReg := opts.Tracer.Start("encode")
	encReg.SetAttr("rebuild", rebuild)
	w.s.Relax()
	n := inc.numNodes()
	w.th.Grow(int(n))

	if !inc.ser() {
		for _, t := range h.Txns[w.intraHigh:] {
			if t.Committed() {
				w.known.add(KnownEdge{Edge: Edge{int32(t.ID) * 2, int32(t.ID)*2 + 1}, Kind: EdgeIntra})
			}
		}
		w.intraHigh = len(h.Txns)
	}

	// Edge variables for grown sides start phase-biased by the maintained
	// topological order, the role ŝ plays for the passes' own encodings:
	// an edge running forward in the current order is probably present.
	edgeLit := func(e Edge) sat.Lit {
		if v, ok := w.th.Lookup(e.From, e.To); ok {
			return sat.PosLit(v)
		}
		v := w.th.EdgeVar(w.s, e.From, e.To)
		w.s.SetPhase(v, w.th.Order(e.From) < w.th.Order(e.To))
		return sat.PosLit(v)
	}

	for k, key := range keys {
		rec := recs[k]
		for _, e := range rec.WR {
			w.known.add(KnownEdge{Edge: e, Kind: EdgeWR, Key: key})
		}
		ids := w.ids[key]
		for j := range rec.Ops {
			op := &rec.Ops[j]
			if !op.Cons {
				w.known.add(KnownEdge{Edge: op.Edge, Kind: op.Kind, Key: key})
				continue
			}
			if len(op.First) == 0 || len(op.Second) == 0 {
				continue // one side holds trivially
			}
			// A constraint's identity is its sides' leading edges: the chain
			// pair's ww edges (or, for an uncoalesced reader constraint, the
			// reader's rw edge), which later readers never change.
			id := [2]Edge{op.First[0], op.Second[0]}
			i, ok := ids[id]
			if !ok {
				if ids == nil {
					ids = make(map[[2]Edge]int32)
					w.ids[key] = ids
				}
				i = int32(len(w.cons))
				ids[id] = i
				w.cons = append(w.cons, Constraint{Kind1: op.Kind, Kind2: op.Kind2, Key: key})
				w.sel = append(w.sel, sat.LitUndef)
			}
			// A constraint that already has its clauses gets one more
			// implication per grown side edge: sel → first side, ¬sel →
			// second side.
			c := &w.cons[i]
			if sel := w.sel[i]; sel != sat.LitUndef {
				for _, e := range op.First[len(c.First):] {
					w.s.AddClause(sel.Neg(), edgeLit(e))
				}
				for _, e := range op.Second[len(c.Second):] {
					w.s.AddClause(sel, edgeLit(e))
				}
			}
			c.First, c.Second = op.First, op.Second
		}
	}
	encoded := time.Since(encodeStart)
	encReg.End()

	// The cold check over the session: its known list is the known graph,
	// whose topological sort under solveRun.less is ŝ (a cycle rejects),
	// and its constraints are the polygraph's. As in a cold audit, the sort
	// is booked as construction. Pre-solve resolution runs ahead of the
	// timestamp stage, and the edges it forces join the known list; the
	// theory takes the new constants at the next solver pass.
	sortStart := time.Now()
	pg := newPolygraph(h, opts.Level)
	pg.initNodeTS()
	pg.Known, pg.Cons = w.known.edges, w.cons
	r := newSolveRun(pg, opts, solveDeadline(ctx, opts))
	r.checkStart = constructStart
	r.s, r.th, r.sel, r.nconst = w.s, w.th, w.sel, w.nconst
	order, ok := r.schedule()
	construct += time.Since(sortStart)
	rep := r.rep
	rep.ConstructWorkers = workers
	rep.Phases.Construct = construct
	rep.Phases.ConstructCPU = construct - regenWall + regenCPU
	rep.Phases.Encode = encoded
	rep.EdgeVars, rep.Solver = w.s.NumVars(), w.s.Stats
	rep.Reorders, rep.ReorderedNodes = w.th.Reorders()
	if ok {
		if set, ok := r.resolve(ctx, r.everything(order)); ok {
			for _, ke := range set.known[len(pg.Known):] {
				w.known.add(ke)
			}
			set.known = w.known.edges
			r.presolved = true
			r.solve(ctx, set)
		}
	}
	w.nconst = r.nconst
	w.th.Retire(w.s) // the last pass's batch ends with the audit
	rep.selfCheck(pg, opts)
	return rep
}
