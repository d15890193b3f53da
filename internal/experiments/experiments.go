// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): Figure 8 (viper vs natural baselines on BlindW-RW),
// Figure 9 (viper vs Elle on list-append), Figure 10 (runtime
// decomposition), Figure 11 (optimization ablation), Figure 12 (client
// concurrency), Figure 13 (heuristic pruning applied to the rule-based
// baselines), Figure 14 (real-world SI violations), and Figure 15
// (synthetic anomalies vs Elle).
//
// Each experiment returns a Table whose rows mirror the paper's, so the
// shapes — who wins, by what order, where the timeouts start — can be
// compared directly. Absolute numbers differ: the substrate here is the
// bundled in-process engine and solver, not the paper's testbed.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"viper/internal/baseline"
	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

// Config scales an experiment.
type Config struct {
	// Sizes overrides the per-experiment history sizes (transactions).
	Sizes []int
	// Clients is the client concurrency while generating histories
	// (default 24, as in the paper).
	Clients int
	// Timeout is the per-check budget (the paper uses 600 s for most
	// figures); default 10 s, suitable for laptop-scale runs.
	Timeout time.Duration
	// Seed makes history generation reproducible.
	Seed int64
	// Trials is the repeat count where the paper repeats (Figure 13).
	Trials int
	// Parallelism is the polygraph-construction worker count passed to
	// every viper invocation (0 = GOMAXPROCS, 1 = one goroutine).
	Parallelism int
	// DisableTSFastPath turns the timestamp-assisted fast path off for
	// every viper invocation (the tsfastpath experiment ignores this and
	// runs its own on/off pair).
	DisableTSFastPath bool
}

func (c Config) clients() int {
	if c.Clients <= 0 {
		return 24
	}
	return c.Clients
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 10 * time.Second
	}
	return c.Timeout
}

func (c Config) sizes(def []int) []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return def
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

// Table is one regenerated figure/table.
type Table struct {
	Name   string // "fig8", ...
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// cell renders a checker result the way the paper's tables do: runtime in
// seconds, or "TO" on timeout, annotated with the verdict when it is not
// an accept.
func cell(res baseline.Result) string {
	switch res.Outcome {
	case core.Timeout:
		return "TO"
	case core.Reject:
		return fmt.Sprintf("%.2f (reject)", res.Elapsed.Seconds())
	default:
		return fmt.Sprintf("%.2f", res.Elapsed.Seconds())
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// genHistory produces a history of the requested size.
func genHistory(gen workload.Generator, txns int, cfg Config, seedOff int64) (*history.History, error) {
	h, _, err := runner.Run(gen, runner.Config{
		Clients: cfg.clients(),
		Txns:    txns,
		Seed:    cfg.Seed + seedOff,
	})
	return h, err
}

// Fig8 compares viper with the natural baselines on BlindW-RW histories
// of growing size. Expected shape: viper several orders of magnitude
// faster; the rule-based baselines hit TO at a few hundred transactions
// while viper continues into the thousands (the paper's ">15× larger
// workloads for the same budget" claim).
func Fig8(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "fig8",
		Title:  "checker runtime vs history size, BlindW-RW (seconds; TO = timeout)",
		Header: []string{"#txns", "Viper", "GSI+SAT", "ASI+SAT", "ASI+Mono", "ASI+Mono+Opt"},
	}
	checkers := []baseline.Checker{
		&baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism, DisableTSFastPath: cfg.DisableTSFastPath}},
		&baseline.GSISat{},
		&baseline.ASISat{},
		&baseline.ASIMono{},
		&baseline.ASIMono{Optimized: true},
	}
	for _, size := range cfg.sizes([]int{100, 200, 400, 1000, 2000, 5000}) {
		h, err := genHistory(workload.NewBlindWRW(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(size)}
		for _, c := range checkers {
			row = append(row, cell(c.Check(h, cfg.timeout())))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 compares viper and the Elle-style checker on the list-append
// workload, where write order is manifested and both checkers are linear
// (the performance difference is "not fundamental").
func Fig9(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "fig9",
		Title:  "viper vs Elle on Jepsen list-append (seconds)",
		Header: []string{"#txns", "Viper", "Elle", "viper-constraints"},
	}
	viper := &baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism, DisableTSFastPath: cfg.DisableTSFastPath}}
	elle := &baseline.Elle{Mode: baseline.ElleSound}
	for _, size := range cfg.sizes([]int{500, 1000, 2000, 4000, 8000}) {
		h, err := genHistory(workload.NewAppend(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		rv := viper.Check(h, cfg.timeout())
		re := elle.Check(h, cfg.timeout())
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), cell(rv), cell(re),
			fmt.Sprint(viper.LastReport.Constraints),
		})
	}
	return t, nil
}

// benchmarksFig10 lists the five benchmarks in the paper's Figure 10
// order (with both BlindW and all three Range variants).
func benchmarksFig10() []workload.Generator {
	return []workload.Generator{
		workload.NewTwitter(1000),
		workload.NewBlindWRM(),
		workload.NewTPCC(3000),
		workload.NewRangeIDH(),
		workload.NewBlindWRW(),
		workload.NewRUBiS(20000, 80000),
		workload.NewRangeRQH(),
		workload.NewRangeB(),
	}
}

// Fig10 decomposes viper's runtime into parsing, constructing, encoding,
// and solving, per benchmark. Expected shape: parsing stable across
// benchmarks, solving usually dominant — except C-TPCC, whose
// read-modify-writes leave no constraints and hence no solving.
func Fig10(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "fig10",
		Title:  "decomposition of viper runtime (seconds)",
		Header: []string{"benchmark", "total", "parse", "construct", "encode", "solve", "constraints"},
	}
	size := 5000
	if s := cfg.sizes(nil); len(s) > 0 {
		size = s[0]
	}
	for _, gen := range benchmarksFig10() {
		h, err := genHistory(gen, size, cfg, 10)
		if err != nil {
			return nil, err
		}
		// Parse phase: measured as a histio round trip through memory is
		// not meaningful here; measure validation+indexing instead.
		parseStart := time.Now()
		if err := h.Validate(); err != nil {
			return nil, err
		}
		parse := time.Since(parseStart)
		rep := core.CheckHistory(h, core.Options{Level: core.AdyaSI, Timeout: cfg.timeout(), Parallelism: cfg.Parallelism, DisableTSFastPath: cfg.DisableTSFastPath})
		total := parse + rep.Phases.Construct + rep.Phases.Encode + rep.Phases.Solve
		t.Rows = append(t.Rows, []string{
			gen.Name(), secs(total), secs(parse),
			secs(rep.Phases.Construct), secs(rep.Phases.Encode), secs(rep.Phases.Solve),
			fmt.Sprint(rep.Constraints),
		})
	}
	return t, nil
}
