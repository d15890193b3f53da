// Benchmarks regenerating the paper's tables and figures at bench-friendly
// sizes (the full-scale sweeps live in cmd/viperbench). One benchmark (or
// benchmark family) per figure, plus ablation benches for the design
// choices DESIGN.md calls out. Custom metrics expose the figure's quantity
// of interest (constraints, solve fraction, ...).
package viper

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/baseline"
	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/sat"
	"viper/internal/workload"
)

// histCache avoids regenerating identical histories across benchmarks.
var histCache sync.Map

func benchHistory(b *testing.B, name string, gen workload.Generator, txns, clients int) *history.History {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d", name, txns, clients)
	if h, ok := histCache.Load(key); ok {
		return h.(*history.History)
	}
	h, _, err := runner.Run(gen, runner.Config{Clients: clients, Txns: txns, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	histCache.Store(key, h)
	return h
}

func mustOutcome(b *testing.B, got, want core.Outcome) {
	b.Helper()
	if got != want {
		b.Fatalf("outcome = %v, want %v", got, want)
	}
}

// --- Figure 8: viper vs natural baselines on BlindW-RW -------------------

func BenchmarkFig8Viper(b *testing.B) {
	for _, size := range []int{100, 400, 1000, 2000} {
		b.Run(fmt.Sprintf("txns=%d", size), func(b *testing.B) {
			h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
				mustOutcome(b, rep.Outcome, core.Accept)
			}
		})
	}
}

func BenchmarkFig8GSISat(b *testing.B) {
	for _, size := range []int{50, 100} {
		b.Run(fmt.Sprintf("txns=%d", size), func(b *testing.B) {
			h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
			c := &baseline.GSISat{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := c.Check(h, time.Minute)
				mustOutcome(b, res.Outcome, core.Accept)
			}
		})
	}
}

func BenchmarkFig8ASISat(b *testing.B) {
	for _, size := range []int{30, 60} {
		b.Run(fmt.Sprintf("txns=%d", size), func(b *testing.B) {
			h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
			c := &baseline.ASISat{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := c.Check(h, time.Minute)
				mustOutcome(b, res.Outcome, core.Accept)
			}
		})
	}
}

func BenchmarkFig8ASIMono(b *testing.B) {
	for _, size := range []int{50, 100} {
		b.Run(fmt.Sprintf("txns=%d", size), func(b *testing.B) {
			h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
			c := &baseline.ASIMono{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := c.Check(h, time.Minute)
				mustOutcome(b, res.Outcome, core.Accept)
			}
		})
	}
}

// --- Figure 9: viper vs Elle on list-append ------------------------------

func BenchmarkFig9ViperAppend(b *testing.B) {
	h := benchHistory(b, "append", workload.NewAppend(), 2000, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
		mustOutcome(b, rep.Outcome, core.Accept)
		if rep.Constraints != 0 {
			b.Fatalf("append history has %d constraints", rep.Constraints)
		}
	}
}

func BenchmarkFig9ElleAppend(b *testing.B) {
	h := benchHistory(b, "append", workload.NewAppend(), 2000, 24)
	c := &baseline.Elle{Mode: baseline.ElleSound}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Check(h, time.Minute)
		mustOutcome(b, res.Outcome, core.Accept)
	}
}

// --- Figure 10: runtime decomposition per benchmark ----------------------

func BenchmarkFig10Decomposition(b *testing.B) {
	gens := []workload.Generator{
		workload.NewTwitter(1000),
		workload.NewBlindWRM(),
		workload.NewTPCC(100),
		workload.NewRangeIDH(),
		workload.NewBlindWRW(),
		workload.NewRUBiS(500, 2000),
		workload.NewRangeRQH(),
		workload.NewRangeB(),
	}
	for _, gen := range gens {
		b.Run(gen.Name(), func(b *testing.B) {
			h := benchHistory(b, gen.Name(), gen, 500, 24)
			var solve, total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
				mustOutcome(b, rep.Outcome, core.Accept)
				solve += rep.Phases.Solve
				total += rep.Phases.Construct + rep.Phases.Encode + rep.Phases.Solve
			}
			if total > 0 {
				b.ReportMetric(float64(solve)/float64(total)*100, "solve-%")
			}
		})
	}
}

// --- Figure 11: optimization ablation -------------------------------------

func BenchmarkFig11Ablation(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"viper", core.Options{Level: core.AdyaSI}},
		{"noP", core.Options{Level: core.AdyaSI, DisablePruning: true}},
		{"noPO", core.Options{Level: core.AdyaSI, DisablePruning: true,
			DisableCombineWrites: true, DisableCoalesce: true}},
	}
	gens := map[string]workload.Generator{
		"C-Twitter": workload.NewTwitter(1000),
		"BlindW-RM": workload.NewBlindWRM(),
		"C-TPCC":    workload.NewTPCC(100),
		"C-RUBiS":   workload.NewRUBiS(500, 2000),
	}
	for name, gen := range gens {
		h := benchHistory(b, name, gen, 500, 24)
		for _, v := range variants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep := core.CheckHistory(h, v.opts)
					mustOutcome(b, rep.Outcome, core.Accept)
				}
			})
		}
	}
}

// --- Figure 12: client concurrency ---------------------------------------

func BenchmarkFig12Concurrency(b *testing.B) {
	for _, clients := range []int{8, 24, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			h := benchHistory(b, "blindw-rw-conc", workload.NewBlindWRW(), 800, clients)
			var constraints int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
				mustOutcome(b, rep.Outcome, core.Accept)
				constraints = rep.Constraints
			}
			b.ReportMetric(float64(constraints), "constraints")
		})
	}
}

// --- Figure 13: heuristic pruning on the rule-based baselines ------------

func BenchmarkFig13BaselinePruning(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 60, 24)
	for _, c := range []baseline.Checker{
		&baseline.GSISat{}, &baseline.GSISat{Pruning: true},
		&baseline.ASISat{}, &baseline.ASISat{Pruning: true},
	} {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := c.Check(h, time.Minute)
				mustOutcome(b, res.Outcome, core.Accept)
			}
		})
	}
}

// --- Figure 14: real-world violation classes ------------------------------

func BenchmarkFig14Violations(b *testing.B) {
	kinds := []anomaly.Kind{
		anomaly.LostUpdate, anomaly.AbortedRead, anomaly.G1c,
		anomaly.ReadYourFutureWrites, anomaly.ReadSkew,
	}
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			base := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 400, 24)
			// Clone via injection into a fresh copy each iteration is
			// costly; inject once and re-check.
			h := cloneHistory(b, base)
			anomaly.Inject(h, kind)
			err := h.Validate()
			if kind.ValidationLevel() {
				if err == nil {
					b.Fatal("validation-level anomaly not caught")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if verr := h.Validate(); verr == nil {
						b.Fatal("accepted")
					}
				}
				return
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
				mustOutcome(b, rep.Outcome, core.Reject)
			}
		})
	}
}

// --- Figure 15: synthetic anomalies, viper vs Elle ------------------------

func BenchmarkFig15Anomalies(b *testing.B) {
	for _, kind := range []anomaly.Kind{anomaly.G1c, anomaly.LongFork, anomaly.GSIb} {
		base := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 400, 24)
		h := cloneHistory(b, base)
		anomaly.Inject(h, kind)
		if err := h.Validate(); err != nil {
			b.Fatal(err)
		}
		b.Run("viper/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
				mustOutcome(b, rep.Outcome, core.Reject)
			}
		})
		b.Run("elle/"+kind.String(), func(b *testing.B) {
			c := &baseline.Elle{Mode: baseline.ElleInferred}
			for i := 0; i < b.N; i++ {
				c.Check(h, time.Minute) // verdict depends on kind (see Fig15)
			}
		})
	}
}

// --- Ablations beyond the paper's figures ---------------------------------

// BenchmarkAblationCoalesce isolates constraint coalescing.
func BenchmarkAblationCoalesce(b *testing.B) {
	h := benchHistory(b, "blindw-rm", workload.NewBlindWRM(), 600, 24)
	for _, disable := range []bool{false, true} {
		name := "coalesced"
		if disable {
			name = "xor"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI, DisableCoalesce: disable})
				mustOutcome(b, rep.Outcome, core.Accept)
			}
		})
	}
}

// --- Substrate microbenchmarks --------------------------------------------

// BenchmarkPolygraphBuild times core.Build at the default worker count:
// the session indexer, the known graph's pass and the pass that writes
// every writer pair's constraint straight into the polygraph.
func BenchmarkPolygraphBuild(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 1000, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := core.Build(h, core.Options{Level: core.AdyaSI})
		if pg.NumNodes == 0 {
			b.Fatal("empty polygraph")
		}
	}
}

// BenchmarkPolygraphBuildAllocs tracks construction's allocation profile
// at one worker (the session's read/writer indexes, the known graph's
// per-key records and assembly, and the constraints' per-key regions and
// side slabs); regressions here show up as allocs/op long before they
// move wall time.
func BenchmarkPolygraphBuildAllocs(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 1000, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := core.Build(h, core.Options{Level: core.AdyaSI, Parallelism: 1})
		if pg.NumNodes == 0 {
			b.Fatal("empty polygraph")
		}
	}
}

// BenchmarkCheckHistoryAllocs tracks the allocation profile of the
// one-shot check the CLI, viperd's first audit and perfbench run: the
// construction BenchmarkPolygraphBuildAllocs times, plus the timestamp
// pass and the verdict.
func BenchmarkCheckHistoryAllocs(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 5000, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI})
		mustOutcome(b, rep.Outcome, core.Accept)
	}
}

// BenchmarkResolveAblation isolates constraint resolution on the
// constraint-heaviest workload: "resolve" is the default pipeline, "solver"
// pushes every constraint to the SAT search (DisableResolve). Each size
// has an accept row and a lost-update reject row; the reject is one the
// solver refutes, so its "resolve" row also times the evidence pass that
// names the cycle. The custom metric is the fraction of constraints the
// pre-solve fixpoint discharged before the solver saw them;
// EXPERIMENTS.md records the numbers.
func BenchmarkResolveAblation(b *testing.B) {
	for _, size := range []int{1000, 2000} {
		h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
		bad := anomaly.Inject(cloneHistory(b, h), anomaly.LostUpdate)
		if err := bad.Validate(); err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name string
			h    *history.History
			want core.Outcome
		}{{"", h, core.Accept}, {"lost-update/", bad, core.Reject}} {
			for _, disable := range []bool{false, true} {
				name := fmt.Sprintf("txns=%d/%sresolve", size, row.name)
				if disable {
					name = fmt.Sprintf("txns=%d/%ssolver", size, row.name)
				}
				b.Run(name, func(b *testing.B) {
					var resolved, constraints int
					for i := 0; i < b.N; i++ {
						rep := core.CheckHistory(row.h, core.Options{Level: core.AdyaSI, DisableResolve: disable})
						mustOutcome(b, rep.Outcome, row.want)
						resolved, constraints = rep.ResolvedConstraints, rep.Constraints
					}
					if constraints > 0 {
						b.ReportMetric(float64(resolved)/float64(constraints)*100, "resolved-%")
					}
				})
			}
		}
	}
}

// BenchmarkPolygraphBuildParallel measures construction's worker pool on
// the constraint-heaviest workload at paper scale (BlindW-RW, 5000 txns);
// workers=1 builds every key on the calling goroutine and is the
// baseline the speedup is read against.
func BenchmarkPolygraphBuildParallel(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 5000, 24)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pg := core.Build(h, core.Options{Level: core.AdyaSI, Parallelism: workers})
				if pg.NumNodes == 0 {
					b.Fatal("empty polygraph")
				}
			}
		})
	}
}

func BenchmarkSATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		const p, holes = 8, 7
		occ := make([][]sat.Var, p)
		for i := range occ {
			occ[i] = make([]sat.Var, holes)
			lits := make([]sat.Lit, holes)
			for j := range occ[i] {
				occ[i][j] = s.NewVar()
				lits[j] = sat.PosLit(occ[i][j])
			}
			s.AddClause(lits...)
		}
		for hh := 0; hh < holes; hh++ {
			for a := 0; a < p; a++ {
				for c := a + 1; c < p; c++ {
					s.AddClause(sat.NegLit(occ[a][hh]), sat.NegLit(occ[c][hh]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP(8,7) must be unsat")
		}
	}
}

func BenchmarkHistoryGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 24, Txns: 500, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// cloneHistory deep-copies a history so injections do not pollute the
// shared cache.
func cloneHistory(b *testing.B, h *history.History) *history.History {
	b.Helper()
	c := history.New()
	for _, t := range h.Txns[1:] {
		nt := *t
		nt.Ops = append([]history.Op(nil), t.Ops...)
		c.Append(&nt)
	}
	if err := c.Validate(); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSelfCheck measures the witness-replay overhead.
func BenchmarkSelfCheck(b *testing.B) {
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 1000, 24)
	for _, selfCheck := range []bool{false, true} {
		name := "off"
		if selfCheck {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI, SelfCheck: selfCheck})
				mustOutcome(b, rep.Outcome, core.Accept)
				if selfCheck && !rep.WitnessVerified {
					b.Fatalf("witness not verified: %v", rep.SelfCheckErr)
				}
			}
		})
	}
}

// BenchmarkIncrementalAudit measures online re-auditing of a growing
// BlindW-RW stream: 5k transactions arriving in 10 batches of 500, with an
// audit after every batch. "incremental" drives one Checker session whose
// construction and solver state persist across the 10 audits; "batch"
// re-runs a from-scratch CheckHistory on each prefix (what a caller
// without the session API would do). The "unstamped" pair runs the same
// stream with its timestamps zeroed: the timestamp stage then bows out,
// so every audit resolves and solves, and the warm audits run their §3.5
// passes on the session's carried solver. The quantity of interest is the
// amortized cost of all 10 audits; EXPERIMENTS.md records the numbers.
func BenchmarkIncrementalAudit(b *testing.B) {
	const batches = 10
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 5000, 24)
	unstamped := history.New()
	for _, t := range h.Txns[1:] {
		t2 := *t
		t2.BeginAt, t2.CommitAt = 0, 0
		unstamped.Append(&t2)
	}
	if err := unstamped.Validate(); err != nil {
		b.Fatal(err)
	}
	n := h.Len()
	per := (n + batches - 1) / batches

	pair := func(b *testing.B, h *history.History) {
		b.Run("incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewChecker(Options{Level: AdyaSI})
				for at := 0; at < n; at += per {
					hi := at + per
					if hi > n {
						hi = n
					}
					c.Append(h.Txns[1+at : 1+hi]...)
					res := c.Audit()
					if res.Outcome != Accept {
						b.Fatalf("audit at %d txns: %v (%v)", hi, res.Outcome, res.Violation)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches)/1e6, "ms/audit")
		})

		b.Run("batch-recheck", func(b *testing.B) {
			// Pre-build the validated prefixes outside the timed region: the
			// comparison is checking cost, not history copying.
			var prefixes []*history.History
			for at := per; at < n+per; at += per {
				hi := at
				if hi > n {
					hi = n
				}
				p := history.New()
				for _, t := range h.Txns[1 : 1+hi] {
					t2 := *t
					p.Append(&t2)
				}
				if err := p.Validate(); err != nil {
					b.Fatal(err)
				}
				prefixes = append(prefixes, p)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range prefixes {
					rep := core.CheckHistory(p, core.Options{Level: core.AdyaSI})
					mustOutcome(b, rep.Outcome, core.Accept)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches)/1e6, "ms/audit")
		})
	}
	pair(b, h)
	b.Run("unstamped", func(b *testing.B) { pair(b, unstamped) })
}

// --- Verdict matrix ------------------------------------------------------

// BenchmarkCheckMatrix measures the one-pass verdict matrix against its
// obvious substitute, six independent per-level checks over the same
// history. "one-pass" is CheckMatrixHistory (shared ingest, derived
// verdicts via lattice monotonicity); "independent" runs CheckHistory at
// every matrix level from scratch. The custom metric reports how many
// levels the matrix actually checked (the rest were derived).
func BenchmarkCheckMatrix(b *testing.B) {
	for _, size := range []int{400, 1000, 2000} {
		h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), size, 24)
		b.Run(fmt.Sprintf("one-pass/txns=%d", size), func(b *testing.B) {
			var checked int
			for i := 0; i < b.N; i++ {
				mr := core.CheckMatrixHistory(h, core.Options{})
				mustOutcome(b, mr.Verdict(core.AdyaSI).Outcome, core.Accept)
				checked = mr.Checked
			}
			b.ReportMetric(float64(checked), "levels-checked")
		})
		b.Run(fmt.Sprintf("independent/txns=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, l := range core.MatrixLevels {
					rep := core.CheckHistory(h, core.Options{Level: l})
					if l == core.AdyaSI {
						mustOutcome(b, rep.Outcome, core.Accept)
					}
				}
			}
		})
	}
}

// BenchmarkAuditMatrixWarm measures the warm incremental matrix session:
// a BlindW-RW stream arriving in 10 batches with a full matrix audit
// after each, one Checker keeping its construction and solver state
// across audits.
func BenchmarkAuditMatrixWarm(b *testing.B) {
	const batches = 10
	h := benchHistory(b, "blindw-rw", workload.NewBlindWRW(), 2000, 24)
	n := h.Len()
	per := (n + batches - 1) / batches
	for i := 0; i < b.N; i++ {
		c := NewChecker(Options{})
		for at := 0; at < n; at += per {
			hi := at + per
			if hi > n {
				hi = n
			}
			c.Append(h.Txns[1+at : 1+hi]...)
			res := c.AuditMatrix()
			if res.Matrix == nil || res.Matrix.Verdict(core.AdyaSI).Outcome != core.Accept {
				b.Fatalf("matrix audit at %d txns: %+v", hi, res.Outcome)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches)/1e6, "ms/audit")
}

// --- Observability overhead ---------------------------------------------

// BenchmarkObsOverhead measures the cost of the observability layer in its
// three states. "disabled" is the configuration every other benchmark runs
// (nil Progress, nil Tracer — one pointer check per hook site) and must
// stay within noise of the pre-obs baselines recorded in EXPERIMENTS.md;
// "progress" adds a 1ms sampling callback (far denser than the 250ms
// default, an upper bound); "traced" records the span tree. The history
// is a seeded histgen SI history, the same in every process (a runner
// history is not), checked stamped and with its stamps zeroed: the
// unstamped check takes the window stage, so its spans are timed too.
// Each variant runs one check before its timer starts.
func BenchmarkObsOverhead(b *testing.B) {
	stamped := histgen.SI(histgen.Spec{Txns: 1000, Keys: 50, MaxConcurrency: 8, Seed: 1})
	unstamped := histgen.SI(histgen.Spec{Txns: 1000, Keys: 50, MaxConcurrency: 8, Seed: 1})
	for _, tx := range unstamped.Txns[1:] {
		tx.BeginAt, tx.CommitAt = 0, 0
	}
	var ticks int
	variants := []struct {
		name string
		opts func() core.Options
	}{
		{"disabled", func() core.Options { return core.Options{Level: core.AdyaSI} }},
		{"progress", func() core.Options {
			return core.Options{
				Level:            core.AdyaSI,
				ProgressInterval: time.Millisecond,
				Progress:         func(ProgressSnapshot) { ticks++ },
			}
		}},
		{"traced", func() core.Options { return core.Options{Level: core.AdyaSI, Tracer: NewTracer()} }},
	}
	for _, in := range []struct {
		name string
		h    *History
	}{{"stamped", stamped}, {"unstamped", unstamped}} {
		for _, v := range variants {
			b.Run(in.name+"/"+v.name, func(b *testing.B) {
				mustOutcome(b, core.CheckHistory(in.h, v.opts()).Outcome, core.Accept)
				ticks = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep := core.CheckHistory(in.h, v.opts())
					mustOutcome(b, rep.Outcome, core.Accept)
				}
				if v.name == "progress" {
					b.ReportMetric(float64(ticks)/float64(b.N), "snapshots/op")
				}
			})
		}
	}
}
