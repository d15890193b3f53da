package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"viper/internal/core"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range []Spec{
		{Txns: 300, ReadRatio: 0.5},
		{Txns: 300, ReadRatio: 0.5, NoTimestamps: true},
		{Txns: 300, ReadRatio: 0.9, LostUpdate: true},
	} {
		logOf := func(seed int64) *Input {
			t.Helper()
			in, err := generate(params{seed: seed}, spec)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := logOf(7), logOf(7), logOf(8)
		if !bytes.Equal(a.Log, b.Log) || a.SHA256 != b.SHA256 {
			t.Fatalf("%+v: one seed gave two different logs", spec)
		}
		if a.SHA256 == c.SHA256 {
			t.Fatalf("%+v: seeds 7 and 8 gave the same log", spec)
		}
		if a.Aborted == 0 || a.Sessions != 24+boolInt(spec.LostUpdate)*3 {
			t.Fatalf("%+v: %d aborted, %d sessions: the scheduler did not interleave 24 clients", spec, a.Aborted, a.Sessions)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestChunkLog(t *testing.T) {
	in, err := generate(params{seed: 1}, Spec{Txns: 120, ReadRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunkLog(in.Log, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(chunks, nil); !bytes.Equal(got, in.Log) {
		t.Fatal("chunks do not reassemble the log")
	}
	lines := func(b []byte) int { return bytes.Count(b, []byte{'\n'}) }
	if len(chunks) != 3 || lines(chunks[0]) != 51 || lines(chunks[1]) != 50 || lines(chunks[2]) != 20 {
		t.Fatalf("chunk lines = %d, %d, %d (%d chunks)", lines(chunks[0]), lines(chunks[1]), lines(chunks[2]), len(chunks))
	}
}

// applies lists, per workload, the metrics that must be non-zero in a
// traced run; the rest may read 0 because the workload never reaches
// that layer.
var applies = map[string][]string{
	"ts-accept": {"histio.decode_s", "history.validate_s", "core.construct_s", "core.constraints",
		"core.tsorder_s", "core.ts_decided", "core.ts_decided_ratio", "core.other_s"},
	"nots-accept": {"histio.decode_s", "history.validate_s", "core.construct_s", "core.constraints",
		"core.resolve_s", "core.resolved", "core.encode_s", "core.edge_vars", "sat.solve_s", "core.other_s"},
	"rm-reject": {"histio.decode_s", "history.validate_s", "core.construct_s", "core.constraints",
		"core.tsorder_s", "core.ts_decided", "core.encode_s", "core.retries", "sat.solve_s", "core.other_s"},
	"viperd-stream": {"core.audit_construct_s_p50", "core.closure_mb", "core.live_txns_max", "core.checkpoints",
		"core.cert_kb", "server.append_s_p50", "server.audit_req_s_p50", "server.overhead_s_p50"},
	"cluster-2w": {"histio.decode_s", "core.construct_s", "core.constraints", "cluster.shards",
		"cluster.wire_mb_out", "cluster.wire_mb_in", "cluster.encode_s", "cluster.decode_s",
		"cluster.replay_s", "cluster.merge_s", "cluster.cross_constraints", "cluster.final_check_s",
		"server.overhead_s_p50"},
}

// smoke runs one workload through the command line entry point on tiny
// inputs and returns the decoded result line.
func smoke(t *testing.T, name string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--smoke",
		"--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
	}
	out := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(out[len(out)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, "0")
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			// An audit is part of the path to a verdict on the whole log.
			if a, v := res.Metrics["audit_s_p50"].Value, res.Metrics["verdict_s"].Value; a > v {
				t.Errorf("audit_s_p50 %v exceeds verdict_s %v", a, v)
			}

			res = smoke(t, w.name, "1")
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s = %+v (present %v), want unit %s", m.name, v, ok, m.unit)
				}
			}
			for _, name := range append(applies[w.name], "histio.log_mb", "trace.overhead", "trace.verdict_s",
				"input.txns", "input.sha256_48", "noise.calib_s") {
				if v := res.Metrics[name]; !(v.Value > 0) {
					t.Errorf("%s = %v on %s, want > 0", name, v.Value, w.name)
				}
			}
		})
	}
}

// TestTraceAccountsForVerdict checks that the layer self times of the
// reported traced repetition add up to its verdict time: the benchmark's
// own code between calls is the only unattributed part.
func TestTraceAccountsForVerdict(t *testing.T) {
	parts := []string{"histio.decode_s", "history.validate_s", "core.construct_s", "core.tsorder_s",
		"core.resolve_s", "core.encode_s", "sat.solve_s", "core.other_s"}
	for _, name := range []string{"ts-accept", "nots-accept", "rm-reject"} {
		res := smoke(t, name, "1")
		var sum float64
		for _, p := range parts {
			sum += res.Metrics[p].Value
		}
		verdict := res.Metrics["trace.verdict_s"].Value
		if gap := verdict - sum; gap < 0 || gap > 0.02*verdict+0.0005 {
			t.Errorf("%s: layers sum to %.6fs, traced verdict %.6fs", name, sum, verdict)
		}
	}
	res := smoke(t, "cluster-2w", "1")
	var sum float64
	for _, p := range []string{"histio.decode_s", "cluster.merge_s", "cluster.final_check_s", "server.overhead_s_p50"} {
		sum += res.Metrics[p].Value
	}
	if verdict := res.Metrics["trace.verdict_s"].Value; math.Abs(verdict-sum) > 0.01*verdict+0.0005 {
		t.Errorf("cluster-2w: layers sum to %.6fs, traced verdict %.6fs", sum, verdict)
	}
}

func TestWrongVerdictFails(t *testing.T) {
	w := workload{"accept-expected-reject", func(p params) (fixture, error) {
		return newOffline(p, Spec{Txns: 200, ReadRatio: 0.5}, core.Reject)
	}}
	var log bytes.Buffer
	res, err := measure(w, config{seed: 1, seconds: 0.1, smoke: true}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d on a wrong verdict\n%s", res.Correct, res.Failed, log.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which names the benchmark's
// command, workloads and metrics, in step with what this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}
