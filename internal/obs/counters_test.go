package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCountersConcurrentAdd: Adds from many goroutines all land, a gauge
// keeps its last Set, and the text export round-trips through
// ParseMetrics in sorted order.
func TestCountersConcurrentAdd(t *testing.T) {
	const workers, adds = 8, 500
	c := NewCounters()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add("audits_total", 1)
				c.Add(fmt.Sprintf("worker_%d_total", w), 2)
				c.Set("sessions", int64(w))
				_ = c.Get("audits_total")
			}
		}(w)
	}
	wg.Wait()

	if got := c.Get("audits_total"); got != workers*adds {
		t.Fatalf("audits_total = %d, want %d", got, workers*adds)
	}
	for w := 0; w < workers; w++ {
		if got := c.Get(fmt.Sprintf("worker_%d_total", w)); got != 2*adds {
			t.Fatalf("worker_%d_total = %d, want %d", w, got, 2*adds)
		}
	}
	if got := c.Get("sessions"); got < 0 || got >= workers {
		t.Fatalf("sessions gauge = %d, want one of the values set", got)
	}
	if got := c.Get("never_written"); got != 0 {
		t.Fatalf("unwritten name reads %d", got)
	}
	c.Set("sessions", 3)

	snap := c.Snapshot()
	if len(snap) != workers+2 || snap["sessions"] != 3 {
		t.Fatalf("snapshot %v", snap)
	}
	snap["audits_total"] = -1 // a snapshot is a copy
	if c.Get("audits_total") != workers*adds {
		t.Fatal("mutating a snapshot changed the registry")
	}

	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != fmt.Sprintf("audits_total %d", workers*adds) || lines[1] != "sessions 3" {
		t.Fatalf("text export not sorted name-value lines:\n%s", buf.String())
	}
	back, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c.Snapshot()) {
		t.Fatalf("round trip %v, registry %v", back, c.Snapshot())
	}
}

// TestParseMetricsRejectsBadLines: a malformed line is an error, blank
// lines are skipped.
func TestParseMetricsRejectsBadLines(t *testing.T) {
	got, err := ParseMetrics(strings.NewReader("a 1\n\nb 2\n"))
	if err != nil || !reflect.DeepEqual(got, map[string]int64{"a": 1, "b": 2}) {
		t.Fatalf("ParseMetrics = %v, %v", got, err)
	}
	if _, err := ParseMetrics(strings.NewReader("a 1\nb two\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}
