package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/runner"
	"viper/internal/workload"
)

// windowSpan returns the attributes of the first audit's window span, and
// whether it has one.
func windowSpan(tr *obs.Tracer) (map[string]int64, bool) {
	for _, s := range tr.Trace().Spans[0].Children {
		if s.Name == "window" {
			return s.Attrs, true
		}
	}
	return nil, false
}

// zeroStamps drops every begin/commit stamp, as a log from a store with
// untrusted clocks arrives.
func zeroStamps(h *history.History) *history.History {
	for _, tx := range h.Txns[1:] {
		tx.BeginAt, tx.CommitAt = 0, 0
	}
	return h
}

// TestWindowMaterialisesFewConstraints: an unstamped accept builds at
// most a tenth of the full polygraph's constraints, over the same known
// graph, and replays its witness, for any worker count. The history is
// generated (histgen), not recorded through the runner, so its counts are
// the same on every run.
func TestWindowMaterialisesFewConstraints(t *testing.T) {
	h := zeroStamps(histgen.SI(histgen.Spec{Txns: 4000, Keys: 50, MaxConcurrency: 8, Seed: 1}))
	full := Build(h, Options{})
	var first *Report
	for _, p := range []int{1, 2} {
		opts := Options{Parallelism: p, SelfCheck: true, Tracer: obs.NewTracer()}
		rep := CheckHistory(h, opts)
		if rep.Outcome != Accept || !rep.WitnessVerified {
			t.Fatalf("parallelism %d: %v (verified %v), want a verified Accept", p, rep.Outcome, rep.WitnessVerified)
		}
		if rep.KnownEdges != len(full.Known) {
			t.Fatalf("parallelism %d: %d known edges, full polygraph %d", p, rep.KnownEdges, len(full.Known))
		}
		if rep.Constraints == 0 || rep.Constraints*10 > len(full.Cons) {
			t.Fatalf("parallelism %d: %d constraints materialised, want at most a tenth of the full polygraph's %d",
				p, rep.Constraints, len(full.Cons))
		}
		attrs, ok := windowSpan(opts.Tracer)
		if !ok || attrs["outcome"] != int64(Accept) || attrs["constraints"] != int64(rep.Constraints) {
			t.Fatalf("parallelism %d: window span %v (present %v), want an accept over %d constraints", p, attrs, ok, rep.Constraints)
		}
		if first == nil {
			first = rep
		} else if rep.Constraints != first.Constraints || rep.EdgeVars != first.EdgeVars || rep.Solver != first.Solver {
			t.Fatalf("parallelism %d: %d constraints, %d edge vars, %+v; parallelism 1: %d, %d, %+v", p,
				rep.Constraints, rep.EdgeVars, rep.Solver, first.Constraints, first.EdgeVars, first.Solver)
		}
	}
}

// farStaleRead is an SI history in which R reads W0's x although W1
// overwrote it, with both writers created far before R, and whose window
// witness fails replay at a small radius. W1 must follow W0 on x: R2 reads
// W1's x and W0's y, so "W1 before W0" would close B(R2)→C(W0)→B(R2). The
// stale read then needs R to begin before W1 commits, which resolution
// forces, and ŝ re-sorted over that edge moves W1's commit past U, W1's
// far successor on u. That pair lies outside the window, so the witness
// runs W1 and U concurrently, and NoConflict fails the replay.
func farStaleRead(fillers int) *history.History {
	b := history.NewBuilder()
	filler := func(tag string) {
		for i := 0; i < fillers; i++ {
			b.Session().Txn().Write(history.Key(fmt.Sprintf("%s%d", tag, i))).Commit()
		}
	}
	w0 := b.Session().Txn().Write("x").Write("y").Commit()
	w1 := b.Session().Txn().Write("x").Write("u").Commit()
	filler("f")
	b.Session().Txn().Write("u").Commit()
	filler("g")
	b.Session().Txn().ReadObserved("x", w0.WriteIDOf("x")).Commit()
	b.Session().Txn().ReadObserved("x", w1.WriteIDOf("x")).ReadObserved("y", w0.WriteIDOf("y")).Commit()
	return b.MustHistory()
}

// TestWindowFarStaleReadWidens: at a small radius the window stage's
// witness fails replay, which fails the pass like an Unsat under its
// batch: the window widens in place, and the stage accepts on a replayed
// witness, in its one window span, with nothing after it, over no more
// constraints than the full polygraph. The witness that fails is
// resolution's, which discharges every window constraint, so its failed
// replay is the first pass's failure: the one solver pass runs at the
// doubled radius.
func TestWindowFarStaleReadWidens(t *testing.T) {
	h := farStaleRead(2)
	for _, stamps := range []bool{true, false} {
		opts := Options{InitialK: 4, SelfCheck: true, Tracer: obs.NewTracer()}
		if stamps {
			opts.DisableTSFastPath = true
		} else {
			zeroStamps(h)
		}
		label := fmt.Sprintf("stamps=%v", stamps)
		rep := CheckHistory(h, opts)
		spans := opts.Tracer.Trace().Spans[0].Children
		if last := spans[len(spans)-1]; last.Name != "window" || last.Attrs["outcome"] != int64(Accept) {
			t.Fatalf("%s: trace %q, want the audit to end in a window span that accepts", label, opts.Tracer.Trace().Structure())
		}
		const want = "audit(construct(g1b) window(resolve attempt(encode solve)))"
		if s := opts.Tracer.Trace().Structure(); s != want {
			t.Fatalf("%s: trace %q, want %q", label, s, want)
		}
		if rep.Outcome != Accept || !rep.WitnessVerified || rep.Retries != 1 || rep.FinalK != 8 {
			t.Fatalf("%s: %v (verified %v) after %d retries at k=%d, want a verified Accept at k=8 after one failed replay",
				label, rep.Outcome, rep.WitnessVerified, rep.Retries, rep.FinalK)
		}
		opts.Tracer = nil
		full := Build(h, opts)
		if rep.Constraints > len(full.Cons) || rep.KnownEdges != len(full.Known) {
			t.Fatalf("%s: checked %d constraints over %d known edges, full polygraph %d over %d",
				label, rep.Constraints, rep.KnownEdges, len(full.Cons), len(full.Known))
		}
	}
}

// TestWindowWidensOnRetry: without resolution to force the far stale
// read's edge, the first pass over the window fails under its batch, and
// the window widens with the radius, so the pass that succeeds sees the
// writers' far pair on u and its witness replays: the stage accepts with
// both pairs built, where a window fixed at the first radius would fail
// replay.
func TestWindowWidensOnRetry(t *testing.T) {
	h := farStaleRead(2)
	opts := Options{InitialK: 4, DisableTSFastPath: true, DisableResolve: true, SelfCheck: true, Tracer: obs.NewTracer()}
	rep := CheckHistory(h, opts)
	attrs, ok := windowSpan(opts.Tracer)
	if !ok || attrs["outcome"] != int64(Accept) || attrs["constraints"] != 2 {
		t.Fatalf("window span %v (present %v), want an accept over both pairs", attrs, ok)
	}
	if rep.Outcome != Accept || !rep.WitnessVerified || rep.Retries == 0 {
		t.Fatalf("%v (verified %v) after %d retries, want a verified Accept after a widening", rep.Outcome, rep.WitnessVerified, rep.Retries)
	}
}

// TestWindowStaleReaderInWindow: a reader of an early writer's version,
// created right after a much later writer of the key, keeps the writers'
// pair in the window — chain extents reach their tail's readers — so the
// window stage accepts without a retry.
func TestWindowStaleReaderInWindow(t *testing.T) {
	b := history.NewBuilder()
	w0 := b.Session().Txn().Write("x").Commit()
	for i := 0; i < 8; i++ {
		b.Session().Txn().Write(history.Key(fmt.Sprintf("f%d", i))).Commit()
	}
	b.Session().Txn().Write("x").Commit()
	b.Session().Txn().ReadObserved("x", w0.WriteIDOf("x")).Commit()
	h := zeroStamps(b.MustHistory())
	opts := Options{InitialK: 4, SelfCheck: true, Tracer: obs.NewTracer()}
	rep := CheckHistory(h, opts)
	attrs, ok := windowSpan(opts.Tracer)
	if !ok || attrs["outcome"] != int64(Accept) || attrs["constraints"] != 1 {
		t.Fatalf("window span %v (present %v), want an accept over the writers' one pair", attrs, ok)
	}
	if rep.Outcome != Accept || !rep.WitnessVerified || rep.Retries != 0 {
		t.Fatalf("%v (verified %v) after %d retries, want a verified Accept without one", rep.Outcome, rep.WitnessVerified, rep.Retries)
	}
}

// TestWindowKnownCycle: a cyclic known graph rejects in ŝ, before any pair
// exists, with the cycle the full path names.
func TestWindowKnownCycle(t *testing.T) {
	// §3.1's long fork: with combining, the read-modify-writes fix both
	// keys' write orders, and the cycle is in the known graph.
	b := history.NewBuilder()
	ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session(), b.Session()}
	t1 := ss[0].Txn().Write("x").Write("y").Commit()
	t2 := ss[1].Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
	t3 := ss[2].Txn().ReadObserved("y", t1.WriteIDOf("y")).Write("y").Commit()
	ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("y", t1.WriteIDOf("y")).Commit()
	ss[4].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t3.WriteIDOf("y")).Commit()
	h := zeroStamps(b.MustHistory())

	opts := Options{Tracer: obs.NewTracer()}
	rep := CheckHistory(h, opts)
	attrs, ok := windowSpan(opts.Tracer)
	if !ok || attrs["outcome"] != int64(Reject) || attrs["constraints"] != 0 {
		t.Fatalf("window span %v (present %v), want a reject over no constraints", attrs, ok)
	}
	opts.Tracer = nil
	full := CheckPolygraph(Build(h, opts), opts)
	if rep.Outcome != Reject || full.Outcome != Reject {
		t.Fatalf("window %v, full polygraph %v; want Rejects", rep.Outcome, full.Outcome)
	}
	if len(rep.KnownCycle) == 0 || !reflect.DeepEqual(rep.KnownCycle, full.KnownCycle) {
		t.Fatalf("window cycle %v, full polygraph cycle %v", rep.KnownCycle, full.KnownCycle)
	}
	if rep.Constraints != 0 || rep.KnownEdges != full.KnownEdges {
		t.Fatalf("window reject: %d constraints over %d known edges, want none over the full polygraph's %d",
			rep.Constraints, rep.KnownEdges, full.KnownEdges)
	}
}

// TestWindowRecordSizing: both window passes size every key's output
// before emitting it: pass 1's known record exactly, like the record
// pass, and each widening's constraints into a region of pairsSize's op
// count, their sides capped views tiling one slab that never grows.
func TestWindowRecordSizing(t *testing.T) {
	corpus := matrixCorpus(t)
	corpus["si-gen/keys=2"] = histgen.SI(histgen.Spec{Txns: 120, Keys: 2, MaxConcurrency: 6, AbortEvery: 9, Seed: 3})
	for name, h := range corpus {
		for _, coalesce := range []bool{true, false} {
			label := fmt.Sprintf("%s/coalesce=%v", name, coalesce)
			inc := sessionOver(h, Options{})
			inc.update()
			w, _, _ := inc.newWindow(Options{DisableCoalesce: !coalesce})
			for _, key := range w.keys {
				if len(inc.writers[key]) == 0 {
					continue
				}
				byWriter := inc.readers[key]
				rec := &KeyRecord{}
				recordReadDeps(w.lite, byWriter, rec)
				kc := w.lite.keyChains(inc.writers[key], byWriter, true)
				kr := keyRecorder{pg: w.lite, rec: rec}
				kr.reserve(kc.knownOps(byWriter), 0)
				w.lite.keyKnown(key, kc, byWriter, kr)
				checkRecordSizing(t, rec, label+"/known/"+string(key))
			}
			// Creation order stands in for ŝ: the radii cut through the
			// chains either way.
			pos := make([]int32, NodeCount(h, AdyaSI))
			for n := range pos {
				pos[n] = int32(n)
			}
			w.place(pos)
			for _, k := range []int{2, 8, 0} {
				for i, key := range w.keys {
					if w.ext[i] == nil {
						continue
					}
					ops, edges := pairsSize(w.ext[i], k, coalesce)
					cw := &consWriter{pg: w.pg, out: make([]Constraint, ops), sides: make([]Edge, 0, edges)}
					w.pg.recordPairs(key, w.ext[i], k, coalesce, cw)
					checkConsSizing(t, cw, edges, fmt.Sprintf("%s/k=%d/%s", label, k, key))
				}
			}
			for i, ext := range w.ext {
				for j, e := range ext {
					if j+1+e.paired != len(ext) {
						t.Fatalf("%s/%s: chain %d paired with %d of the %d after it after the exact widening", label, w.keys[i], j, e.paired, len(ext)-j-1)
					}
				}
			}
		}
	}
}

// checkConsSizing fails unless a consWriter kept to its sizing: its side
// slab still has the capacity it was sized with, and the sides of the
// constraints it wrote are capped views tiling the slab's used part in
// emission order.
func checkConsSizing(t *testing.T, cw *consWriter, edges int, label string) {
	t.Helper()
	if cap(cw.sides) != edges {
		t.Fatalf("%s: side slab capacity %d, sized for %d", label, cap(cw.sides), edges)
	}
	next := 0
	for j, c := range cw.out[:cw.n] {
		for _, side := range [][]Edge{c.First, c.Second} {
			if len(side) == 0 || cap(side) != len(side) {
				t.Fatalf("%s: constraint %d side len %d cap %d, want non-empty and capped", label, j, len(side), cap(side))
			}
			if next+len(side) > len(cw.sides) || &cw.sides[next] != &side[0] {
				t.Fatalf("%s: constraint %d side is not the next view of the key's slab", label, j)
			}
			next += len(side)
		}
	}
	if next != len(cw.sides) {
		t.Fatalf("%s: views cover %d slab edges, slab holds %d", label, next, len(cw.sides))
	}
}

// consKey renders a constraint with its two sides in a fixed order: a
// window emits a pair with the chain whose head begins first in ŝ as
// "first", Build with the one first in chain order.
func consKey(c Constraint) string {
	a, b := fmt.Sprint(c.Kind1, c.First), fmt.Sprint(c.Kind2, c.Second)
	if b < a {
		a, b = b, a
	}
	return fmt.Sprint(c.Key, a, b)
}

// TestWindowRadiusZeroIsBuild: the full polygraph is the window at radius
// 0, edge for edge. Over histgen SI histories (read-modify-write chains
// among them), the anomaly kinds and a BlindW-RW run, stamped and with
// their stamps zeroed, at three levels:
//
//   - Build, a ShardMerger merge of BuildShardRecords and a stamped cold
//     check agree: the merge edge for edge and in order, the check (whose
//     window starts at radius 0) in its counts;
//   - a window built at InitialK 4 in ŝ and widened to 0 holds Build's
//     known graph and the same multiset of constraints.
func TestWindowRadiusZeroIsBuild(t *testing.T) {
	corpus := matrixCorpus(t)
	corpus["si-gen/2000x30"] = histgen.SI(histgen.Spec{Txns: 2000, Keys: 30, MaxConcurrency: 8, Seed: 1})
	blindw, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 8, Txns: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	corpus["blindw-rw"] = blindw
	for name, h := range corpus {
		for _, stamped := range []bool{true, false} {
			if !stamped {
				zeroStamps(h)
			}
			for _, level := range []Level{AdyaSI, StrongSessionSI, Serializability} {
				opts := Options{Level: level}
				label := fmt.Sprintf("%s/stamped=%v/%v", name, stamped, level)
				built := Build(h, opts)
				comparePolygraphs(t, built, mergeViaShards(t, h, opts, 3), label+"/merge")
				if usable, _ := tsUsable(h); usable {
					rep := CheckHistory(h, opts)
					if rep.KnownEdges != len(built.Known) || rep.Constraints != len(built.Cons) {
						t.Fatalf("%s: stamped check over %d known edges and %d constraints, Build %d and %d",
							label, rep.KnownEdges, rep.Constraints, len(built.Known), len(built.Cons))
					}
				}

				opts.InitialK = 4
				inc := sessionOver(h, opts)
				inc.update()
				w, _, _ := inc.newWindow(opts)
				if !reflect.DeepEqual(w.pg.Known, built.Known) {
					t.Fatalf("%s: the window's known graph differs from Build's", label)
				}
				order, ok := newSolveRun(w.pg, opts, time.Time{}).schedule()
				if !ok {
					continue // a cyclic known graph: the window builds no pair
				}
				w.place(positionsOf(order))
				w.widen(4)
				w.widen(0)
				if got, want := w.pg.Stats(), built.Stats(); got.Constraints != want.Constraints || got.ConstraintEdges != want.ConstraintEdges {
					t.Fatalf("%s: window widened from 4 to 0 holds %d constraints over %d side edges, Build %d over %d",
						label, got.Constraints, got.ConstraintEdges, want.Constraints, want.ConstraintEdges)
				}
				got, want := make([]string, len(w.pg.Cons)), make([]string, len(built.Cons))
				for i := range got {
					got[i], want[i] = consKey(w.pg.Cons[i]), consKey(built.Cons[i])
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: window widened from 4 to 0 and Build hold different constraints", label)
				}
			}
		}
	}
}

// TestWindowWidenAllocs: pass 2 allocates per key and per widening, not
// per constraint: at radius 0 with one worker, its fewest allocations of
// ten runs are the same at two history sizes over one key set.
func TestWindowWidenAllocs(t *testing.T) {
	var allocs [2]uint64
	for i, txns := range []int{300, 3000} {
		h := histgen.SI(histgen.Spec{Txns: txns, Keys: 8, Seed: 1})
		inc := sessionOver(h, Options{Parallelism: 1})
		inc.update()
		allocs[i] = math.MaxUint64
		for range 10 {
			w, _, _ := inc.newWindow(inc.opts)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			w.widen(0)
			runtime.ReadMemStats(&after)
			allocs[i] = min(allocs[i], after.Mallocs-before.Mallocs)
			if len(w.pg.Cons) == 0 {
				t.Fatalf("%d txns: no constraint built", txns)
			}
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a one-worker widening to radius 0 allocates %v times at 300 txns but %v at 3000", allocs[0], allocs[1])
	}
	t.Logf("%d allocations per widening over 8 keys", allocs[0])
}
