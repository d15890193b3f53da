package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/histio"
	"viper/internal/history"
)

func writeSample(t *testing.T, mutate func(h *history.History)) string {
	t.Helper()
	b := history.NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()
	if mutate != nil {
		mutate(h)
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := histio.WriteFile(path, h); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAccept(t *testing.T) {
	path := writeSample(t, nil)
	var out, errb bytes.Buffer
	code := run([]string{"-v", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"verdict: accept", "polygraph:", "solver:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectWithCycleAndDot(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.ReadSkew)
	})
	dot := filepath.Join(t.TempDir(), "g.dot")
	var out, errb bytes.Buffer
	code := run([]string{"-dot", dot, path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, out: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "counterexample cycle") {
		t.Fatalf("no counterexample:\n%s", out.String())
	}
	if _, err := histio.ReadFile(dot); err == nil {
		t.Fatal("dot file parsed as history?!")
	}
}

func TestRunValidationReject(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.AbortedRead)
	})
	var out, errb bytes.Buffer
	code := run([]string{path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d (out %q, err %q)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "reject (validation)") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunLevels(t *testing.T) {
	path := writeSample(t, nil)
	for _, level := range []string{"adya-si", "gsi", "strong-session-si", "strong-si", "serializability", "ser", "si", "sssi"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-level", level, path}, &out, &errb); code != 0 {
			t.Fatalf("level %s: exit %d", level, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-level", "bogus", path}, &out, &errb); code != exitUsage {
		t.Fatal("bogus level accepted")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != exitUsage {
		t.Fatalf("no-args exit %d", code)
	}
	if !strings.Contains(errb.String(), "exit codes: 0 accept, 1 reject, 2 usage/IO error, 3 timeout") {
		t.Fatalf("usage does not document exit codes:\n%s", errb.String())
	}
	if code := run([]string{"/nonexistent/file"}, &out, &errb); code != exitUsage {
		t.Fatalf("missing-file exit %d", code)
	}
}

// TestRunRefusesNegativeKnobs: a negative -parallel, -k or -drift is a
// usage error naming the flag; zero still selects the default.
func TestRunRefusesNegativeKnobs(t *testing.T) {
	path := writeSample(t, nil)
	for _, f := range []struct{ flag, neg, zero string }{
		{"-parallel", "-1", "0"},
		{"-k", "-1", "0"},
		{"-drift", "-10ns", "0s"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{f.flag, f.neg, path}, &out, &errb); code != exitUsage ||
			!strings.Contains(errb.String(), f.flag+" must not be negative") {
			t.Fatalf("%s %s: exit %d, stderr %q", f.flag, f.neg, code, errb.String())
		}
		out.Reset()
		errb.Reset()
		if code := run([]string{f.flag, f.zero, path}, &out, &errb); code != exitAccept {
			t.Fatalf("%s %s: exit %d, stderr %q", f.flag, f.zero, code, errb.String())
		}
	}
}

func TestRunFollowCompleteLogAccepts(t *testing.T) {
	path := writeSample(t, nil)
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-idle-exit", "100ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "txns: accept") {
		t.Fatalf("no streamed accept verdicts:\n%s", out.String())
	}
}

func TestRunFollowDetectsReject(t *testing.T) {
	path := writeSample(t, func(h *history.History) {
		anomaly.Inject(h, anomaly.ReadSkew)
	})
	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-idle-exit", "100ms", path}, &out, &errb)
	if code != exitReject {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "txns: reject") {
		t.Fatalf("no streamed reject verdict:\n%s", out.String())
	}
}

func TestRunFollowTailsGrowingLog(t *testing.T) {
	// Start from a log whose header declares more transactions than are
	// initially present, append the rest while -follow is running, and
	// check the tail loop picks them up and audits more than once.
	b := history.NewBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()

	var full bytes.Buffer
	if err := histio.Encode(&full, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected encoding: %q", full.String())
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		defer f.Close()
		f.WriteString(strings.Join(lines[2:], ""))
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-interval", "50ms", "-idle-exit", "400ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if strings.Count(out.String(), "txns: accept") < 2 {
		t.Fatalf("expected multiple streamed audits:\n%s", out.String())
	}
}

func TestRunFollowValidationPendingThenAccept(t *testing.T) {
	// A prefix whose read observes a not-yet-appended write must be
	// reported as pending (validation), not rejected, and the session must
	// accept once the writer arrives.
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	w := s1.Txn().Write("x").Commit()
	s2.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h := b.RawHistory()
	// Swap so the reader precedes the writer in the log.
	h.Txns[1], h.Txns[2] = h.Txns[2], h.Txns[1]
	h.Txns[1].ID, h.Txns[2].ID = 1, 2

	var full bytes.Buffer
	if err := histio.Encode(&full, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		defer f.Close()
		f.WriteString(strings.Join(lines[2:], ""))
	}()

	var out, errb bytes.Buffer
	code := run([]string{"-follow", "-every", "1", "-interval", "50ms", "-idle-exit", "400ms", path}, &out, &errb)
	if code != exitAccept {
		t.Fatalf("exit %d, out %q, err %q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "pending (validation") {
		t.Fatalf("expected a pending validation audit:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "txns: accept") {
		t.Fatalf("expected a final accept:\n%s", out.String())
	}
}
