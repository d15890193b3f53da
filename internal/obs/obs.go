// Package obs is viper's observability layer: phase-scoped tracing,
// live progress snapshots, and the versioned machine-readable report the
// CLIs emit. A checker that audits live traffic is only operable if an
// operator can see *why* a check is slow or stuck; this package makes the
// checker's internal phases and counters visible without perturbing them.
//
// The design constraints, in order:
//
//  1. Zero overhead when disabled. Every hook is behind a nil check: a nil
//     *Tracer produces no-op Regions, a nil progress callback means the
//     solver's sampling hook is never installed. The instrumented hot paths
//     pay one pointer comparison (EXPERIMENTS.md records the measurement).
//  2. Instrumentation must never influence results. Spans and snapshots
//     are pure observers: they read counters that the checker maintains
//     anyway and allocate only in the observer's own structures. The
//     determinism test suite locks this down (two identically-configured
//     runs produce identical solver statistics and span structure).
//  3. Everything exportable. Spans, snapshots, and reports are plain
//     structs with stable JSON encodings, versioned so downstream tooling
//     can detect schema changes.
//
// Span trees are single-writer: the checking goroutine opens and closes
// Regions in LIFO order (phases nest, they do not overlap). The Tracer is
// nonetheless mutex-guarded so a progress callback on another goroutine may
// safely snapshot a trace mid-check.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed phase of a check: a named interval with optional
// integer attributes and nested children. Times are nanosecond offsets
// from the owning trace's epoch, so spans from one trace are directly
// comparable and the encoding carries no absolute wall-clock times.
type Span struct {
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	ended bool // End already applied (Regions may End defensively twice)
}

// Trace is an exportable span forest: every root span recorded since the
// tracer's epoch, plus the total elapsed time when the trace was taken.
type Trace struct {
	DurNS int64   `json:"dur_ns"`
	Spans []*Span `json:"spans"`
}

// Structure renders the trace's span tree as a compact string of names —
// "audit(construct attempt(encode solve))" — with all timing and
// attributes elided. The determinism tests compare structures: two runs of
// the same check must execute the same phases in the same nesting, even
// though their durations differ.
func (tr *Trace) Structure() string {
	var b strings.Builder
	var walk func(spans []*Span)
	walk = func(spans []*Span) {
		for i, s := range spans {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(s.Name)
			if len(s.Children) > 0 {
				b.WriteByte('(')
				walk(s.Children)
				b.WriteByte(')')
			}
		}
	}
	walk(tr.Spans)
	return b.String()
}

// Tracer records a tree of phase-scoped spans. The zero value is not
// usable; call NewTracer. A nil *Tracer is a valid no-op tracer: Start
// returns a Region whose every method does nothing, which is the disabled
// fast path the checker relies on.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	roots []*Span
	open  []*Span // innermost open span last
}

// NewTracer returns a tracer whose epoch (the zero offset of all spans) is
// now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span nested under the innermost open span (or as a new
// root) and returns its Region handle. Callers must End the region;
// regions close in LIFO order, and ending a region closes any still-open
// descendants with it.
func (t *Tracer) Start(name string) Region {
	if t == nil {
		return Region{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, StartNS: int64(time.Since(t.epoch))}
	if n := len(t.open); n > 0 {
		p := t.open[n-1]
		p.Children = append(p.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.open = append(t.open, s)
	return Region{t: t, s: s}
}

// Trace snapshots the recorded spans. It is safe to call mid-check (a
// progress callback may export a partial trace); spans still open have
// DurNS zero.
func (t *Tracer) Trace() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{DurNS: int64(time.Since(t.epoch)), Spans: t.roots}
}

// Region is the handle of an open span. The zero Region (from a nil
// tracer) is valid and inert.
type Region struct {
	t *Tracer
	s *Span
}

// End closes the region's span, recording its duration. Ending twice is
// harmless (the second call is ignored), which lets cleanup paths End
// defensively.
func (r Region) End() {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.s.ended {
		return
	}
	now := int64(time.Since(r.t.epoch))
	// Close any still-open descendants, then the span itself.
	for n := len(r.t.open); n > 0; n-- {
		top := r.t.open[n-1]
		r.t.open = r.t.open[:n-1]
		if !top.ended {
			top.ended = true
			top.DurNS = now - top.StartNS
		}
		if top == r.s {
			return
		}
	}
	// Span no longer on the open stack (an ancestor already closed it);
	// nothing further to do — the loop above marked it ended.
}

// SetAttr attaches an integer attribute to the span.
func (r Region) SetAttr(name string, v int64) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.s.Attrs == nil {
		r.s.Attrs = make(map[string]int64)
	}
	r.s.Attrs[name] = v
}

// Child attaches an already-measured child span of the given duration,
// ending now. The checker uses this for sub-phases it times itself, such
// as a solver pass's encode and solve.
func (r Region) Child(name string, d time.Duration) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	now := int64(time.Since(r.t.epoch))
	start := now - int64(d)
	if start < r.s.StartNS {
		start = r.s.StartNS
	}
	r.s.Children = append(r.s.Children, &Span{
		Name: name, StartNS: start, DurNS: now - start, ended: true,
	})
}

// attrString renders attributes deterministically (sorted by key), for
// human-readable span dumps.
func attrString(attrs map[string]int64) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, attrs[k])
	}
	return " " + strings.Join(parts, " ")
}

// Dump renders the trace as an indented text tree, one span per line, for
// terminal output.
func (tr *Trace) Dump(w *strings.Builder) {
	var walk func(spans []*Span, depth int)
	walk = func(spans []*Span, depth int) {
		for _, s := range spans {
			w.WriteString(strings.Repeat("  ", depth))
			fmt.Fprintf(w, "%s %.3fms%s\n", s.Name, float64(s.DurNS)/1e6, attrString(s.Attrs))
			walk(s.Children, depth+1)
		}
	}
	walk(tr.Spans, 0)
}
