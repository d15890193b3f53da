package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"viper/internal/acyclic"
	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/oracle"
)

// checkBoth runs the same history with resolution enabled and disabled
// and fails unless both verdicts match want (resolution is sound: it may
// never flip a verdict).
func checkBoth(t *testing.T, h *history.History, level Level, want Outcome, label string) *Report {
	t.Helper()
	on := CheckHistory(h, Options{Level: level})
	off := CheckHistory(h, Options{Level: level, DisableResolve: true})
	if on.Outcome != off.Outcome {
		t.Fatalf("%s: resolve-on %v != resolve-off %v", label, on.Outcome, off.Outcome)
	}
	if on.Outcome != want {
		t.Fatalf("%s: got %v, want %v", label, on.Outcome, want)
	}
	if off.ResolvedConstraints != 0 || off.ForcedEdges != 0 {
		t.Fatalf("%s: DisableResolve reported resolution work (%d resolved, %d forced)",
			label, off.ResolvedConstraints, off.ForcedEdges)
	}
	return on
}

// verifyKnownCycle checks that a rejection witness is a well-formed simple
// cycle: consecutive edges chain To→From, the last edge closes back to the
// first, and no transaction appears twice (the closure extracts witness
// paths by BFS, so the cycle must also be free of shortcuts).
func verifyKnownCycle(t *testing.T, cyc []KnownEdge, label string) {
	t.Helper()
	if len(cyc) < 2 {
		t.Fatalf("%s: cycle too short: %v", label, cyc)
	}
	seen := make(map[int32]bool)
	for i, ke := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if ke.To != next.From {
			t.Fatalf("%s: edge %d ends at %d but edge %d starts at %d", label, i, ke.To, i+1, next.From)
		}
		if seen[ke.From] {
			t.Fatalf("%s: transaction %d repeats — cycle is not simple: %v", label, ke.From, cyc)
		}
		seen[ke.From] = true
	}
}

// TestResolveDifferentialGenerated cross-checks resolution on schedule-
// sampled SI histories (accepted by construction) at sizes where the
// fixpoint does real work, across every level that uses the polygraph.
func TestResolveDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := histgen.SI(histgen.Spec{Txns: 200, Keys: 6, MaxConcurrency: 6, AbortEvery: 9, Seed: seed})
		for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI} {
			checkBoth(t, h, level, Accept, "generated SI")
		}
	}
}

// TestResolveDifferentialAnomalies injects every polygraph-level anomaly
// into a generated SI history and checks that both configurations reject,
// and that a resolution-found rejection carries a well-formed witness.
func TestResolveDifferentialAnomalies(t *testing.T) {
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue // rejected before the polygraph is built
		}
		for seed := int64(0); seed < 4; seed++ {
			h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 120, Keys: 5, Seed: seed}), kind)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			rep := checkBoth(t, h, AdyaSI, Reject, kind.String())
			if rep.KnownCycle != nil {
				verifyKnownCycle(t, rep.KnownCycle, kind.String())
			}
		}
	}
}

// mutateObservation rewires one random read to observe a different
// committed write of the same key — the classic way a real execution goes
// wrong. The result may or may not remain SI; the point of the fuzz is
// only that resolution never changes the answer.
func mutateObservation(h *history.History, rng *rand.Rand) bool {
	writes := make(map[history.Key][]history.WriteID)
	for _, txn := range h.Txns[1:] {
		if txn.Status != history.StatusCommitted {
			continue
		}
		for _, op := range txn.Ops {
			if op.Kind == history.OpWrite || op.Kind == history.OpInsert {
				writes[op.Key] = append(writes[op.Key], op.WriteID)
			}
		}
	}
	for attempt := 0; attempt < 64; attempt++ {
		txn := h.Txns[1:][rng.Intn(len(h.Txns)-1)]
		if len(txn.Ops) == 0 {
			continue
		}
		op := &txn.Ops[rng.Intn(len(txn.Ops))]
		if op.Kind != history.OpRead || len(writes[op.Key]) == 0 {
			continue
		}
		op.Observed = writes[op.Key][rng.Intn(len(writes[op.Key]))]
		return true
	}
	return false
}

// TestResolveDifferentialFuzz mutates observations of generated SI
// histories and checks verdict equality on whatever comes out; tiny cases
// are additionally compared against the exhaustive oracle.
func TestResolveDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		spec := histgen.Spec{Txns: 40, Keys: 3, MaxConcurrency: 4, Seed: int64(iter)}
		tiny := iter%2 == 0
		if tiny {
			spec.Txns, spec.Keys = 7, 2
		}
		h := histgen.SI(spec)
		for m := rng.Intn(3); m >= 0; m-- {
			mutateObservation(h, rng)
		}
		if err := h.Validate(); err != nil {
			continue // mutation broke a validation invariant: not our input
		}
		on := CheckHistory(h, Options{Level: AdyaSI})
		off := CheckHistory(h, Options{Level: AdyaSI, DisableResolve: true})
		if on.Outcome != off.Outcome {
			t.Fatalf("iter %d: resolve-on %v != resolve-off %v", iter, on.Outcome, off.Outcome)
		}
		if tiny {
			want := Reject
			if oracle.IsSI(h) {
				want = Accept
			}
			if on.Outcome != want {
				t.Fatalf("iter %d: checker %v, oracle %v", iter, on.Outcome, want)
			}
		}
	}
}

// TestResolveDifferentialIncremental streams a history that turns bad
// mid-stream through two warm sessions (resolve on / off) and checks the
// verdicts agree at every audit.
func TestResolveDifferentialIncremental(t *testing.T) {
	bad := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 300, Keys: 6, MaxConcurrency: 5, Seed: 11}), anomaly.LostUpdate)
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	audit := func(inc *Incremental) *Report {
		// Incremental's contract: the caller validates appended history
		// before auditing (the streaming Checker wrapper does the same).
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		return inc.Audit()
	}
	on := NewIncremental(Options{Level: AdyaSI})
	off := NewIncremental(Options{Level: AdyaSI, DisableResolve: true})
	const step = 60
	var last *Report
	for at := 1; at < len(bad.Txns); at += step {
		hi := at + step
		if hi > len(bad.Txns) {
			hi = len(bad.Txns)
		}
		for _, txn := range bad.Txns[at:hi] {
			t2 := *txn
			on.Append(&t2)
			t3 := *txn
			off.Append(&t3)
		}
		a, b := audit(on), audit(off)
		if a.Outcome != b.Outcome {
			t.Fatalf("audit at %d txns: resolve-on %v != resolve-off %v", hi, a.Outcome, b.Outcome)
		}
		last = a
	}
	if last == nil || last.Outcome != Reject {
		t.Fatalf("final audit: %+v, want Reject", last)
	}
	if last.KnownCycle != nil {
		verifyKnownCycle(t, last.KnownCycle, "incremental lost update")
	}
}

// TestResolveCycleWitness forces resolution itself to find the rejection
// (a G-SIb cycle is entirely decided by known edges once the constraints
// resolve) and checks the witness is a valid simple known-edge cycle with
// every edge carrying a concrete dependency kind.
func TestResolveCycleWitness(t *testing.T) {
	h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 150, Keys: 4, Seed: 2}), anomaly.GSIb)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.Outcome != Reject {
		t.Fatalf("outcome %v", rep.Outcome)
	}
	if rep.KnownCycle == nil {
		t.Skip("rejection was found by the solver, not resolution, under this layout")
	}
	verifyKnownCycle(t, rep.KnownCycle, "G-SIb")
	for i, ke := range rep.KnownCycle {
		if ke.Kind == 0 && ke.Key == "" {
			// Every witness edge must be attributable: either a polygraph
			// known edge or a forced constraint side, both of which carry
			// kind and key.
			t.Fatalf("edge %d (%d→%d) has no provenance", i, ke.From, ke.To)
		}
	}
}

// TestResolveForcedCycleProvenance: when the fixpoint stops on a large
// forced batch it never folded, and that batch closes a cycle with the
// known graph, the rejection's cycle still names every edge with its kind
// and key — forced edges included, which the polygraph's own known list
// does not hold. Constraint x forces 0→1 with 64 filler edges, y forces
// 2→0, and 1→2 is known: the closure, stale until the batch folds, sees
// no conflict, and the batch of 66 edges from a sweep that discharged 2
// of 100 constraints ends the fixpoint unfolded.
func TestResolveForcedCycleProvenance(t *testing.T) {
	const n = 400
	pg := &Polygraph{NumNodes: n, nodeTS: make([]int64, n), Known: []KnownEdge{
		{Edge: Edge{1, 2}, Kind: EdgeWR, Key: "k"},
		{Edge: Edge{3, 4}, Kind: EdgeWR, Key: "k"},
	}}
	forced := []Edge{{0, 1}}
	for i := int32(0); i < 64; i++ {
		forced = append(forced, Edge{10 + i, 110 + i})
	}
	dead := []Edge{{4, 3}} // closes 3→4
	pg.Cons = []Constraint{
		{First: dead, Second: forced, Kind1: EdgeWW, Kind2: EdgeWW, Key: "x"},
		{First: dead, Second: []Edge{{2, 0}}, Kind1: EdgeWW, Kind2: EdgeRW, Key: "y"},
	}
	for u := int32(200); len(pg.Cons) < 100; u += 2 {
		pg.Cons = append(pg.Cons, Constraint{First: []Edge{{u, u + 1}}, Second: []Edge{{u + 1, u}}, Kind1: EdgeWW, Kind2: EdgeWW, Key: "z"})
	}
	rep := CheckPolygraph(pg, Options{DisableTSFastPath: true})
	if rep.Outcome != Reject || rep.ForcedEdges != len(forced)+1 {
		t.Fatalf("outcome %v with %d forced edges, want a reject after forcing %d", rep.Outcome, rep.ForcedEdges, len(forced)+1)
	}
	verifyKnownCycle(t, rep.KnownCycle, "forced cycle")
	want := map[Edge]KnownEdge{
		{0, 1}: {Edge: Edge{0, 1}, Kind: EdgeWW, Key: "x"},
		{1, 2}: {Edge: Edge{1, 2}, Kind: EdgeWR, Key: "k"},
		{2, 0}: {Edge: Edge{2, 0}, Kind: EdgeRW, Key: "y"},
	}
	if len(rep.KnownCycle) != len(want) {
		t.Fatalf("cycle %v, want the three edges of 0→1→2→0", rep.KnownCycle)
	}
	for i, ke := range rep.KnownCycle {
		if ke != want[ke.Edge] {
			t.Fatalf("edge %d is %+v, want %+v", i, ke, want[ke.Edge])
		}
	}
}

// TestResolveEvidencePerAnomaly pins the evidence each anomaly kind's
// rejection names on both paths — the one-shot check, and a warm session
// audited every 150 transactions — over histgen SI histories of four
// seeds, with timestamps usable and zeroed. Both paths must reject, naming
// a well-formed cycle of exactly the length the table records. The table
// is what the checker named when it was recorded, the same for every
// seed and both stamp settings. Resolution finds these cycles: the known
// graph's sort or the pre-solve pass for most kinds, and for the lost
// update, which the solver refutes on both paths, the evidence pass. A
// change to it must keep them.
func TestResolveEvidencePerAnomaly(t *testing.T) {
	want := map[anomaly.Kind]struct{ oneShot, warm int }{
		anomaly.G1c:           {4, 4},
		anomaly.LongFork:      {4, 4},
		anomaly.GSIb:          {4, 4},
		anomaly.LostUpdate:    {2, 2},
		anomaly.ReadSkew:      {2, 2},
		anomaly.FracturedRead: {2, 2},
		anomaly.CausalFork:    {4, 4},
		anomaly.Phantom:       {2, 2},
	}
	const step = 150
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue
		}
		w, ok := want[kind]
		if !ok {
			t.Fatalf("%v: no recorded evidence", kind)
		}
		for seed := int64(0); seed < 4; seed++ {
			for _, stamps := range []bool{true, false} {
				label := fmt.Sprintf("%v/seed=%d/stamps=%v", kind, seed, stamps)
				h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 400, Keys: 10, MaxConcurrency: 5, AbortEvery: 9, Seed: seed}), kind)
				if !stamps {
					for _, tx := range h.Txns[1:] {
						tx.BeginAt, tx.CommitAt = 0, 0
					}
				}
				if err := h.Validate(); err != nil {
					t.Fatal(err)
				}
				one := CheckHistory(h, Options{Level: AdyaSI})
				inc := NewIncremental(Options{Level: AdyaSI})
				var warm *Report
				for at := 1; at < len(h.Txns); at += step {
					for _, tx := range h.Txns[at:min(at+step, len(h.Txns))] {
						t2 := *tx
						inc.Append(&t2)
					}
					if inc.History().Validate() == nil { // a prefix may read ahead
						warm = inc.Audit()
					}
				}
				if inc.warm == nil {
					t.Fatalf("%s: the session never audited warm", label)
				}
				for _, p := range []struct {
					path string
					rep  *Report
					want int
				}{{"one-shot", one, w.oneShot}, {"warm", warm, w.warm}} {
					if p.rep.Outcome != Reject {
						t.Fatalf("%s/%s: %v, want Reject", label, p.path, p.rep.Outcome)
					}
					if len(p.rep.KnownCycle) != p.want {
						t.Fatalf("%s/%s: names a %d-edge cycle, want %d", label, p.path, len(p.rep.KnownCycle), p.want)
					}
					verifyKnownCycle(t, p.rep.KnownCycle, label+"/"+p.path)
				}
			}
		}
	}
}

// TestResolveEvidenceSpan: only a refutation pays for large folds. An
// accept's trace holds no evidence span. A lost-update reject, which the
// solver refutes, holds exactly one and names its 2-edge cycle, one-shot
// and in a warm session, whose cached reject does not run the pass again.
// Under DisableResolve the reject runs no evidence pass and names no
// cycle.
func TestResolveEvidenceSpan(t *testing.T) {
	spec := histgen.Spec{Txns: 400, Keys: 10, MaxConcurrency: 5, AbortEvery: 9}
	evidence := func(tr *obs.Tracer) int { return strings.Count(tr.Trace().Structure(), "evidence") }
	check := func(h *history.History, opts Options) (*Report, int) {
		opts.Level, opts.Tracer = AdyaSI, obs.NewTracer()
		return CheckHistory(h, opts), evidence(opts.Tracer)
	}
	for seed := int64(0); seed < 2; seed++ {
		spec.Seed = seed
		if rep, spans := check(histgen.SI(spec), Options{}); rep.Outcome != Accept || spans != 0 {
			t.Fatalf("seed %d: accept: %v with %d evidence spans, want Accept with none", seed, rep.Outcome, spans)
		}
		bad := anomaly.Inject(histgen.SI(spec), anomaly.LostUpdate)
		if err := bad.Validate(); err != nil {
			t.Fatal(err)
		}
		rep, spans := check(bad, Options{})
		if rep.Outcome != Reject || spans != 1 || len(rep.KnownCycle) != 2 {
			t.Fatalf("seed %d: one-shot: %v with %d evidence spans and a %d-edge cycle, want Reject with one span and 2 edges",
				seed, rep.Outcome, spans, len(rep.KnownCycle))
		}
		if rep, spans := check(bad, Options{DisableResolve: true}); rep.Outcome != Reject || spans != 0 || rep.KnownCycle != nil {
			t.Fatalf("seed %d: DisableResolve: %v with %d evidence spans and cycle %v, want Reject with neither",
				seed, rep.Outcome, spans, rep.KnownCycle)
		}

		tr := obs.NewTracer()
		inc := NewIncremental(Options{Level: AdyaSI, Tracer: tr})
		var warm *Report
		for at := 1; at < len(bad.Txns); at += 150 {
			for _, tx := range bad.Txns[at:min(at+150, len(bad.Txns))] {
				t2 := *tx
				inc.Append(&t2)
			}
			if inc.History().Validate() == nil {
				warm = inc.Audit()
			}
		}
		again := inc.Audit()
		if inc.warm == nil || warm.Outcome != Reject || again != warm || len(warm.KnownCycle) != 2 || evidence(tr) != 1 {
			t.Fatalf("seed %d: warm: %v (cached %v) with %d evidence spans and a %d-edge cycle, want a cached warm Reject with one span and 2 edges",
				seed, warm.Outcome, again == warm, evidence(tr), len(warm.KnownCycle))
		}
	}
}

// --- closure unit tests --------------------------------------------------

// randomDAG returns a random DAG over n nodes whose edges all run forward
// in order, a random topological order (a permutation, rarely the
// identity), so bit numbering and node ids disagree.
func randomDAG(rng *rand.Rand, n, edges int) (order []int32, es []KnownEdge) {
	order = make([]int32, n)
	for i, v := range rng.Perm(n) {
		order[i] = int32(v)
	}
	for len(es) < edges {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		es = append(es, KnownEdge{Edge: Edge{order[min(i, j)], order[max(i, j)]}})
	}
	return order, es
}

// randomTargets marks a random subset of about half the nodes as targets
// of cl, and returns it.
func randomTargets(rng *rand.Rand, cl *closure) []int32 {
	var ts []int32
	for v := int32(0); v < int32(cl.n); v++ {
		if rng.Intn(2) == 0 {
			cl.target(v)
			ts = append(ts, v)
		}
	}
	return ts
}

// reachRef is reference reachability by DFS: the nodes a nonempty path
// from u reaches.
func reachRef(n int, es []KnownEdge, u int32) []bool {
	adj := make([][]int32, n)
	for _, e := range es {
		adj[e.From] = append(adj[e.From], e.To)
	}
	seen := make([]bool, n)
	stack := []int32{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return seen
}

// checkClosure compares reaches from every node to every target with
// reachRef over es.
func checkClosure(t *testing.T, label string, cl *closure, es []KnownEdge, targets []int32) {
	t.Helper()
	for u := int32(0); u < int32(cl.n); u++ {
		ref := reachRef(cl.n, es, u)
		for _, v := range targets {
			if got := cl.reaches(u, v); got != ref[v] {
				t.Fatalf("%s: reaches(%d,%d)=%v, reference %v", label, u, v, got, ref[v])
			}
		}
	}
}

// TestClosureBuildMatchesReference checks the parallel level build against
// DFS reachability, on random DAGs under random topological orders and
// random target subsets spanning several words.
func TestClosureBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		n := 100 + rng.Intn(300)
		order, es := randomDAG(rng, n, 2*n)
		cl := newClosure(n, es)
		targets := randomTargets(rng, cl)
		cl.build(order, 1+iter%4)
		checkClosure(t, fmt.Sprintf("iter %d", iter), cl, es, targets)
	}
}

// TestClosureRefreshMatchesRebuild stages arcs on a built closure, many
// of them backward in its build order, so that a row comes to reach a
// target numbered before its start; it folds them by refresh and, on a
// twin, by rebuild, and compares both against DFS reachability. The
// staged arcs keep the graph acyclic, as forcing does short of a reject.
func TestClosureRefreshMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	refreshed, moved := 0, 0
	for iter := 0; iter < 40; iter++ {
		n := 200 + rng.Intn(400)
		order, es := randomDAG(rng, n, 2*n)
		cls := [2]*closure{newClosure(n, es), newClosure(n, es)}
		targets := randomTargets(rng, cls[0])
		for _, v := range targets {
			cls[1].target(v)
		}
		for _, cl := range cls {
			cl.build(order, 2)
		}
		before := slices.Clone(cls[0].start)
		pos := positionsOf(order)
		var srcs []int32
		for k := 0; k < 8; k++ {
			// Backward arcs out of the order's second quarter, so refresh has
			// few enough dirty rows to run, into targets before them that
			// cannot reach back.
			u, v := order[n/4+rng.Intn(n/4)], targets[rng.Intn(len(targets))]
			if pos[v] >= pos[u] || reachRef(n, es, v)[u] {
				continue
			}
			for _, cl := range cls {
				cl.addArc(u, v)
			}
			es = append(es, KnownEdge{Edge: Edge{u, v}})
			srcs = append(srcs, u)
		}
		next, ok := acyclic.TopoBFS(n, cls[0].out, nil)
		if !ok {
			t.Fatalf("iter %d: staged arcs closed a cycle", iter)
		}
		if cls[0].refresh(next, srcs) {
			refreshed++
		} else {
			cls[0].build(next, 2)
		}
		for u := range before {
			if cls[0].start[u] < before[u] {
				moved++
			}
		}
		cls[1].build(next, 2)
		checkClosure(t, fmt.Sprintf("iter %d refresh", iter), cls[0], es, targets)
		checkClosure(t, fmt.Sprintf("iter %d rebuild", iter), cls[1], es, targets)
	}
	t.Logf("%d of 40 folds refreshed; %d rows started earlier", refreshed, moved)
	if refreshed == 0 || moved == 0 {
		t.Fatalf("%d of 40 folds refreshed, %d rows started earlier: the folds never exercised refresh moving a row", refreshed, moved)
	}
}

// TestClosureBuildAllocs: a one-worker build allocates the same handful of
// times whatever the graph's size, depth or target count — the per-node
// state sized once per closure, the build's rows from one slab and its
// level lists from one counting sort. Each size counts the fewest
// allocations of ten builds, so that one the runtime makes on its own
// during a build does not count.
func TestClosureBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var allocs [2]uint64
	for i, n := range []int{200, 4000} {
		order, es := randomDAG(rng, n, 3*n)
		cl := newClosure(n, es)
		randomTargets(rng, cl)
		allocs[i] = math.MaxUint64
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cl.build(order, 1)
			runtime.ReadMemStats(&after)
			allocs[i] = min(allocs[i], after.Mallocs-before.Mallocs)
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a one-worker build allocates %v times at 200 nodes but %v at 4000", allocs[0], allocs[1])
	}
}

// BenchmarkClosureBuild times building the resolution closure the way
// resolvePolygraph does — adjacency, targets, build — over the known graph
// of a seeded histgen SI history with its stamps zeroed, the input of an
// unstamped check.
func BenchmarkClosureBuild(b *testing.B) {
	h := histgen.SI(histgen.Spec{Txns: 4000, Keys: 400, MaxConcurrency: 8, Seed: 1})
	for _, tx := range h.Txns[1:] {
		tx.BeginAt, tx.CommitAt = 0, 0
	}
	if err := h.Validate(); err != nil {
		b.Fatal(err)
	}
	pg := Build(h, Options{Level: AdyaSI})
	n := int(pg.NumNodes)
	order, ok := acyclic.TopoBFS(n, newClosure(n, pg.Known).out, nil)
	if !ok {
		b.Fatal("cyclic known graph")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := newClosure(n, pg.Known)
		for _, c := range pg.Cons {
			for _, side := range [2][]Edge{c.First, c.Second} {
				for _, e := range side {
					cl.target(e.From)
					cl.target(e.To)
				}
			}
		}
		cl.build(order, 1)
		b.ReportMetric(float64(cl.bytes()), "closure-B/op")
	}
}

// TestClosureTopoOrderFindCycle checks the fixpoint's validation of
// staged arcs, acyclic.TopoBFS without a tie order over the closure's
// adjacency: it fails exactly on cyclic stagings, and acyclic.FindCycle
// then returns a genuine simple cycle of staged arcs.
func TestClosureTopoOrderFindCycle(t *testing.T) {
	cl := newClosure(6, nil)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		cl.addArc(e[0], e[1])
	}
	if _, ok := acyclic.TopoBFS(cl.n, cl.out, nil); !ok {
		t.Fatal("acyclic staging reported a cycle")
	}
	cl.addArc(4, 1) // closes 1→2→3→4→1
	if _, ok := acyclic.TopoBFS(cl.n, cl.out, nil); ok {
		t.Fatal("cyclic staging passed the sort")
	}
	cyc := acyclic.FindCycle(cl.n, cl.out)
	if len(cyc) < 2 {
		t.Fatalf("FindCycle returned %v", cyc)
	}
	has := func(u, v int32) bool {
		for _, w := range cl.out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	seen := make(map[int32]bool)
	for i, u := range cyc {
		if seen[u] {
			t.Fatalf("node %d repeats in %v", u, cyc)
		}
		seen[u] = true
		v := cyc[(i+1)%len(cyc)]
		if !has(u, v) {
			t.Fatalf("cycle step %d→%d is not a staged arc (%v)", u, v, cyc)
		}
	}
}
