package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenAccept is the paper's Figure 2 history (SI-accepted): two blind
// writers of x plus a reader of the first.
func goldenAccept(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("x").Commit()
	s2.Txn().Write("x").Commit()
	s3.Txn().ReadObserved("x", t1.WriteIDOf("x")).Commit()
	return b.MustHistory()
}

// goldenLongFork is the §3.1 long-fork anomaly (not SI). With write
// combining (the default) the rejection is a known-graph cycle; with
// -no-combine -no-pruning it must come out of the constraint search.
func goldenLongFork(t *testing.T) *history.History {
	t.Helper()
	b := history.NewBuilder()
	ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session(), b.Session()}
	t1 := ss[0].Txn().Write("x").Write("y").Commit()
	t2 := ss[1].Txn().ReadObserved("x", t1.WriteIDOf("x")).Write("x").Commit()
	t3 := ss[2].Txn().ReadObserved("y", t1.WriteIDOf("y")).Write("y").Commit()
	ss[3].Txn().ReadObserved("x", t2.WriteIDOf("x")).ReadObserved("y", t1.WriteIDOf("y")).Commit()
	ss[4].Txn().ReadObserved("x", t1.WriteIDOf("x")).ReadObserved("y", t3.WriteIDOf("y")).Commit()
	return b.MustHistory()
}

// TestGoldenReports locks down the -report-json document (and embedded
// trace) for three named histories against versioned golden files. Timing
// and host-dependent fields are normalized before comparison; everything
// else — verdicts, graph counts, solver counters, cycle evidence, span
// structure — must be bit-stable. Regenerate with:
//
//	go test ./cmd/viper -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name     string
		build    func(*testing.T) *history.History
		extra    []string
		wantCode int
	}{
		// A clean SI history: accepted, witness self-checkable.
		{name: "accept", build: goldenAccept, wantCode: exitAccept},
		// Long fork with combining: the RMW reads fix the write order and
		// the cycle is already in the known graph — no solving needed.
		{name: "known-cycle", build: goldenLongFork, wantCode: exitReject},
		// Long fork without combining or pruning: the rejection must come
		// from the constraint search (nonzero constraints and conflicts).
		{name: "solver-reject", build: goldenLongFork,
			extra: []string{"-no-combine", "-no-pruning"}, wantCode: exitReject},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build(t)
			hPath := filepath.Join(t.TempDir(), "h.jsonl")
			if err := histio.WriteFile(hPath, h); err != nil {
				t.Fatal(err)
			}
			rPath := filepath.Join(t.TempDir(), "report.json")
			args := append([]string{"-parallel", "1"}, tc.extra...)
			args = append(args, "-report-json", rPath, hPath)
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.wantCode, errb.String())
			}

			raw, err := os.ReadFile(rPath)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := obs.DecodeReport(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("report does not decode: %v", err)
			}
			// Round-trip: re-encoding the decoded document must reproduce
			// the emitted bytes exactly.
			var re bytes.Buffer
			if err := doc.Encode(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, re.Bytes()) {
				t.Fatalf("report does not round-trip:\nemitted:\n%s\nre-encoded:\n%s", raw, re.Bytes())
			}

			doc.Normalize()
			var norm bytes.Buffer
			if err := doc.Encode(&norm); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, norm.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(norm.Bytes(), want) {
				t.Fatalf("report drifted from %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
					golden, norm.Bytes(), want)
			}
		})
	}
}

// TestTraceOut exercises -trace-out: the emitted trace must parse and
// contain the expected phases, the G1b screen, timestamp stage and
// pre-solve resolution included. A -follow session over the same log
// with the timestamp stage off adds the validate span, which every
// Checker audit opens, and the window stage of its first (cold) audit.
func TestTraceOut(t *testing.T) {
	hPath := filepath.Join(t.TempDir(), "h.jsonl")
	if err := histio.WriteFile(hPath, goldenAccept(t)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"parse", "audit", "construct", "g1b", "tsorder", "resolve", "attempt"}},
		{[]string{"-follow", "-idle-exit", "100ms", "-ts-fastpath", "off"}, []string{"validate", "audit", "construct", "g1b", "window", "attempt"}},
	} {
		tPath := filepath.Join(t.TempDir(), "trace.json")
		args := append(append([]string{"-trace-out", tPath}, tc.args...), hPath)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != exitAccept {
			t.Fatalf("%v: exit %d (stderr: %s)", tc.args, code, errb.String())
		}
		raw, err := os.ReadFile(tPath)
		if err != nil {
			t.Fatal(err)
		}
		var tr obs.Trace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%v: trace does not parse: %v", tc.args, err)
		}
		structure := tr.Structure()
		for _, want := range tc.want {
			if !strings.Contains(structure, want) {
				t.Fatalf("%v: trace structure %q missing span %q", tc.args, structure, want)
			}
		}
	}
}
