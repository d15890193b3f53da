// Command perfbench is the repository benchmark: five deterministic
// BlindW workloads driven through the entry points a user touches
// (cmd/viper's decode-and-check path, a viperd session, a viperd
// cluster), each verdict checked, with the user-visible metrics from an
// untraced run and a per-layer ledger from a traced one. LEDGER.md says
// why each workload exists and what each metric should move.
//
//	perfbench --workload ts-accept --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is 0 only when every verdict was right.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string // directory for trace files
}

// setups is how many times a run sets its workload up; setup_s is the
// median of their times.
const setups = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: ts-accept, nots-accept, rm-reject, viperd-stream, cluster-2w")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; equal seeds give byte-identical logs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds (at least one repetition runs)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs, for testing the benchmark itself")
	fs.StringVar(&cfg.out, "out", ".bench_build/traces", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	w, ok := lookup(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := measure(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure sets the workload up setups times, keeps the last fixture,
// and runs repetitions for the window. Lines before the result record the
// input fingerprint and machine noise; they gate nothing.
func measure(w workload, cfg config, log io.Writer) (*result, error) {
	ctx := context.Background()
	steal0, calib0 := stealTicks(), calibrate()
	f, setupTimes, err := setUp(w, params{seed: cfg.seed, smoke: cfg.smoke}, setups)
	if f != nil {
		defer f.close()
	}
	if err != nil {
		return nil, err
	}
	in := f.input()
	fmt.Fprintf(log, "perfbench: %s seed=%d input txns=%d aborted=%d sessions=%d log_mb=%.3f sha256=%s\n",
		w.name, cfg.seed, in.Txns, in.Aborted, in.Sessions, float64(len(in.Log))/mib, in.SHA256)
	fmt.Fprintf(log, "perfbench: set-ups %.4g s\n", setupTimes)

	if r, ok := f.(referencer); ok {
		if err := r.reference(ctx); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(log, "perfbench: peak RSS includes set-up (%v)\n", err)
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	plain := repeat(ctx, f, nil, window)
	var tr *tracer
	var traced []rep
	if cfg.trace {
		tr = newTracer()
		traced = repeat(ctx, f, tr, window)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	steal := stealTicks() - steal0
	if steal0 < 0 {
		steal = -1
	}
	calib := median([]float64{calib0, calibrate()})
	fmt.Fprintf(log, "perfbench: noise steal_ticks=%d calib_s=%.4f\n", steal, calib)

	res := &result{Metrics: make(map[string]value)}
	for _, r := range append(plain, traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.err != nil {
			fmt.Fprintf(log, "perfbench: failure: %v\n", r.err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !cfg.trace {
		var verdicts, audits []float64
		var txns int
		var wall float64
		for _, r := range plain {
			verdicts = append(verdicts, r.verdict.Seconds())
			for _, a := range r.audits {
				audits = append(audits, a.Seconds())
			}
			txns += r.txns
			wall += r.wall.Seconds()
		}
		fmt.Fprintf(log, "perfbench: %d repetitions, %d verdict requests, verdicts %.4g s\n", len(plain), len(audits), verdicts)
		set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(endToEnd, name)} }
		set("verdict_s", median(verdicts))
		set("audit_s_p50", percentile(audits, 50))
		set("audit_s_p90", percentile(audits, 90))
		set("txns_per_s", float64(txns)/wall)
		set("peak_rss_mb", peak)
		set("setup_s", median(setupTimes))
		return res, nil
	}

	for _, m := range perLayer {
		res.Metrics[m.name] = value{0, m.unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(perLayer, name)} }
	tv := make([]float64, len(traced))
	for i, r := range traced {
		tv[i] = r.verdict.Seconds()
	}
	pv := make([]float64, len(plain))
	for i, r := range plain {
		pv[i] = r.verdict.Seconds()
	}
	// Report the layers of the traced repetition with the median verdict
	// time, so its layer times add up to one real verdict.
	mid := traced[medianIndex(tv)]
	for name, v := range mid.layers {
		set(name, v)
	}
	set("histio.log_mb", float64(len(in.Log))/mib)
	set("trace.verdict_s", mid.verdict.Seconds())
	set("trace.overhead", median(tv)/median(pv))
	set("input.txns", float64(in.Txns))
	set("input.aborted", float64(in.Aborted))
	sha48, _ := strconv.ParseUint(in.SHA256[:12], 16, 64)
	set("input.sha256_48", float64(sha48))
	set("noise.steal_ticks", float64(steal))
	set("noise.calib_s", calib)
	path, err := tr.write(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// setUp builds the workload n times, tearing each fixture down before the
// next, and returns the last one with every set-up time. Every set-up must
// produce the same log. The caller closes a non-nil fixture.
func setUp(w workload, p params, n int) (fixture, []float64, error) {
	var f fixture
	var times []float64
	for i := 0; i < n; i++ {
		var sha string
		if f != nil {
			sha = f.input().SHA256
			err := f.close()
			f = nil
			if err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
			runtime.GC()
		}
		start := time.Now()
		nf, err := w.setup(p)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		f = nf
		if sha != "" && f.input().SHA256 != sha {
			return f, nil, fmt.Errorf("setup: seed %d gave two different logs", p.seed)
		}
	}
	return f, times, nil
}

// repeat runs repetitions until the next one would end past the window,
// and always at least one. A failed repetition ends the loop: a check
// that blew its budget must not be retried until the process limit.
func repeat(ctx context.Context, f fixture, tr *tracer, window float64) []rep {
	var reps []rep
	start := time.Now()
	for {
		runtime.GC()
		tr.next()
		t0 := time.Now()
		r := f.run(ctx, tr)
		r.wall = time.Since(t0)
		reps = append(reps, r)
		if r.failed > 0 || time.Since(start).Seconds()+r.wall.Seconds() > window {
			return reps
		}
	}
}

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unlisted metric " + name)
}
