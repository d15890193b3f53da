// Command viperbench regenerates the paper's evaluation figures
// (Figures 8–15 of §7): it generates histories at the requested sizes,
// runs viper and the baselines, and prints one table per experiment.
//
// Usage:
//
//	viperbench -exp fig8                 # one experiment
//	viperbench -exp all -timeout 30s     # everything, 30s per check
//	viperbench -exp fig8 -sizes 100,200,400,1000 -clients 24
//	viperbench -exp resolve -jsonout BENCH_resolve.json
//	viperbench -exp cluster -sizes 2000 -ratchet BENCH_cluster.json   # CI perf gate
//
// Paper-scale runs (e.g. -sizes up to 10000 with -timeout 600s) take
// hours, exactly as the artifact's compute estimates say; the defaults are
// laptop-scale and preserve the figures' shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"viper/internal/experiments"
	"viper/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injected arguments and streams, for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "all", "experiment: fig8 … fig15, or all")
		sizes       = fs.String("sizes", "", "comma-separated history sizes overriding the experiment defaults")
		clients     = fs.Int("clients", 24, "client concurrency for history generation")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-check time budget")
		seed        = fs.Int64("seed", 1, "history generation seed")
		trials      = fs.Int("trials", 3, "trials for experiments the paper repeats (fig13)")
		par         = fs.Int("parallel", 0, "polygraph construction workers for viper (0 = GOMAXPROCS, 1 = record every key on one goroutine)")
		tsFastPath  = fs.String("ts-fastpath", "auto", "timestamp-assisted fast path for viper invocations: auto (on when usable timestamps are present) | on | off")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile (taken at exit) to this path")
		execTr      = fs.String("trace", "", "write a Go execution trace of the run to this path")
		jsonOut     = fs.String("jsonout", "", "also write the tables as a JSON array to this path")
		ratchet     = fs.String("ratchet", "", "baseline JSON tables (a previous -jsonout); fail if any matching row's wall-clock regresses beyond the tolerance")
		ratchetTol  = fs.Float64("ratchet-tolerance", 0.25, "fractional wall-clock regression allowed by -ratchet (0.25 = 25%)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *showVersion {
		fmt.Fprintf(stdout, "%s %s\n", "viperbench", version.Version)
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 3
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 3
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *execTr != "" {
		f, err := os.Create(*execTr)
		if err != nil {
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 3
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 3
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "viperbench: %v\n", err)
				return
			}
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "viperbench: %v\n", err)
			}
			f.Close()
		}()
	}

	switch *tsFastPath {
	case "auto", "on", "off":
	default:
		fmt.Fprintf(stderr, "viperbench: -ts-fastpath must be auto, on, or off (got %q)\n", *tsFastPath)
		return 3
	}
	cfg := experiments.Config{
		Clients:           *clients,
		Timeout:           *timeout,
		Seed:              *seed,
		Trials:            *trials,
		Parallelism:       *par,
		DisableTSFastPath: *tsFastPath == "off",
	}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(stderr, "viperbench: bad size %q\n", part)
				return 3
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	all := experiments.All()
	var names []string
	if *exp == "all" {
		names = experiments.Order()
	} else {
		if all[*exp] == nil {
			fmt.Fprintf(stderr, "viperbench: unknown experiment %q (have %s, all)\n",
				*exp, strings.Join(experiments.Order(), ", "))
			return 3
		}
		names = []string{*exp}
	}

	var tables []*experiments.Table
	for _, name := range names {
		start := time.Now()
		table, err := all[name](cfg)
		if err != nil {
			fmt.Fprintf(stderr, "viperbench: %s: %v\n", name, err)
			return 1
		}
		table.Fprint(stdout)
		fmt.Fprintf(stdout, "(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
		tables = append(tables, table)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "viperbench: %v\n", err)
			return 1
		}
	}
	if *ratchet != "" {
		if err := ratchetCheck(*ratchet, *ratchetTol, tables, stdout); err != nil {
			fmt.Fprintf(stderr, "viperbench: ratchet: %v\n", err)
			return 1
		}
	}
	return 0
}

// ratchetCheck compares each produced row against the checked-in
// baseline tables and fails on wall-clock regression. Rows are matched
// by table name plus the identity columns both headers share ahead of
// the "wall(s)" column; rows or tables the baseline does not know are
// ignored (new sizes and new experiments don't trip the ratchet).
func ratchetCheck(path string, tolerance float64, tables []*experiments.Table, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline []*experiments.Table
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("decoding %s: %v", path, err)
	}
	byName := make(map[string]*experiments.Table, len(baseline))
	for _, bt := range baseline {
		byName[bt.Name] = bt
	}

	col := func(header []string, name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		return -1
	}
	matched := 0
	for _, nt := range tables {
		bt := byName[nt.Name]
		if bt == nil {
			continue
		}
		nWall, bWall := col(nt.Header, "wall(s)"), col(bt.Header, "wall(s)")
		if nWall < 0 || bWall < 0 {
			continue
		}
		// Identity columns: names both headers carry before their wall
		// column, in the new table's order.
		type idCol struct{ n, b int }
		var ids []idCol
		for i := 0; i < nWall; i++ {
			if j := col(bt.Header[:bWall], nt.Header[i]); j >= 0 {
				ids = append(ids, idCol{n: i, b: j})
			}
		}
		key := func(row []string, pick func(idCol) int) string {
			parts := make([]string, len(ids))
			for k, id := range ids {
				parts[k] = row[pick(id)]
			}
			return strings.Join(parts, "\x00")
		}
		base := make(map[string]float64, len(bt.Rows))
		for _, row := range bt.Rows {
			if w, err := strconv.ParseFloat(row[bWall], 64); err == nil {
				base[key(row, func(id idCol) int { return id.b })] = w
			}
		}
		for _, row := range nt.Rows {
			old, ok := base[key(row, func(id idCol) int { return id.n })]
			if !ok {
				continue
			}
			now, err := strconv.ParseFloat(row[nWall], 64)
			if err != nil {
				continue
			}
			matched++
			limit := old * (1 + tolerance)
			if now > limit {
				return fmt.Errorf("%s: row %v regressed: wall %.2fs > baseline %.2fs × %.2f",
					nt.Name, row[:nWall], now, old, 1+tolerance)
			}
			fmt.Fprintf(out, "ratchet ok: %s %v wall %.2fs (baseline %.2fs, limit %.2fs)\n",
				nt.Name, row[:nWall], now, old, limit)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no produced row matched the baseline in %s — ratchet would never fire", path)
	}
	return nil
}
