package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"viper/internal/obs"
)

// span is one call into a layer, timed from the benchmark's own code, or
// a part of such a call that the program's reply accounts for (Derived:
// its duration is a phase counter the call returned, not a clock reading
// taken here).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Trace   int    `json:"trace"`  // one per measured repetition
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// programTrace is the in-program obs trace core.CheckHistory recorded
// under the benchmark span Span.
type programTrace struct {
	Span  int        `json:"span"`
	Trace *obs.Trace `json:"trace"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per call.
type tracer struct {
	epoch   time.Time
	trace   int
	spans   []span
	program []programTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// next starts a new trace id for the next repetition.
func (t *tracer) next() {
	if t != nil {
		t.trace++
	}
}

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, StartNS: now, EndNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// derive records a child of parent whose duration d the program reported.
// Phase counters carry no start time, so derived children are laid end to
// end from the parent's start; only their durations are meaningful.
func (t *tracer) derive(parent int, name string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	at := t.spans[parent-1].StartNS
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent == parent && s.Derived {
			at = max(at, s.EndNS)
		}
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name,
		StartNS: at, EndNS: at + int64(d), Derived: true})
}

func (t *tracer) attach(id int, tr *obs.Trace) {
	if t != nil && id != 0 && tr != nil {
		t.program = append(t.program, programTrace{Span: id, Trace: tr})
	}
}

// self is a span's duration minus the durations of its children.
func (t *tracer) self(id int) time.Duration {
	d := t.spans[id-1].dur()
	for i := id; i < len(t.spans); i++ {
		if t.spans[i].Parent == id {
			d -= t.spans[i].dur()
		}
	}
	return d
}

// named returns the ids of trace's spans called name, in start order.
func (t *tracer) named(trace int, name string) []int {
	var ids []int
	for i := range t.spans {
		if s := &t.spans[i]; s.Trace == trace && s.Name == name {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// selfByName sums self time per span name over one trace.
func (t *tracer) selfByName(trace int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range t.spans {
		if s := &t.spans[i]; s.Trace == trace {
			out[s.Name] += t.self(s.ID)
		}
	}
	return out
}

// child returns the duration of id's child called name (0 if none).
func (t *tracer) child(id int, name string) time.Duration {
	for i := id; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Parent == id && s.Name == name {
			return s.dur()
		}
	}
	return 0
}

// write saves every span and program trace as one JSON file in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Spans   []span         `json:"spans"`
		Program []programTrace `json:"program"`
	}{t.spans, t.program})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
