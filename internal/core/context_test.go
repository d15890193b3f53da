package core

import (
	"context"
	"testing"
	"time"

	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
)

// TestCheckContextPreCanceled pins the fast path: a context canceled
// before checking starts yields Timeout without touching the solver.
func TestCheckContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := histgen.SI(histgen.Spec{Txns: 50, Seed: 1})
	rep := CheckHistoryContext(ctx, h, Options{Level: AdyaSI})
	if rep.Outcome != Timeout {
		t.Fatalf("outcome = %v, want Timeout", rep.Outcome)
	}
}

// TestCheckContextCancelMidSolve cancels while the solver is running —
// deterministically, by braking the solve with a Progress callback that
// blocks until the cancel has happened — and asserts the solve is
// interrupted promptly instead of running to completion. It interrupts
// the window stage's (window.go) exact solve over every pair (pruning
// off), and its first pruned pass; the window span records the timeout
// either way. Both solves run hundreds of decisions on this history, past
// the sampler's first tick.
func TestCheckContextCancelMidSolve(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 400, Seed: 2})
	for _, tc := range []struct {
		name  string
		prune bool
	}{{"exact", false}, {"pruned", true}} {
		ctx, cancel := context.WithCancel(context.Background())
		inSolve := make(chan struct{})
		var signaled bool

		opts := Options{
			Level: AdyaSI,
			// The timestamp fast path would accept this conformant history
			// before any solver runs; this test is specifically about
			// interrupting a running solve, so force the solver path.
			DisableTSFastPath: true,
			// Without pruning the window holds every pair and the check
			// solves it exactly; with it, the first pass solves the window
			// at the first radius.
			DisablePruning:   !tc.prune,
			ProgressInterval: time.Nanosecond, // fire the callback on the first sampling tick
			// The callback runs synchronously on the solve goroutine, so it
			// can brake the solver deterministically.
			Progress: func(obs.Snapshot) {
				if !signaled {
					signaled = true
					close(inSolve)
					<-ctx.Done() // hold the solver here until the cancel lands
				}
			},
			Tracer: obs.NewTracer(),
		}

		go func() {
			<-inSolve
			cancel()
		}()

		start := time.Now()
		rep := CheckHistoryContext(ctx, h, opts)
		if rep.Outcome != Timeout {
			t.Fatalf("%s: outcome = %v, want Timeout", tc.name, rep.Outcome)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("%s: cancellation took %v", tc.name, elapsed)
		}
		if attrs, ok := windowSpan(opts.Tracer); !ok || attrs["outcome"] != int64(Timeout) {
			t.Fatalf("%s: window span %v (present %v), want a timeout", tc.name, attrs, ok)
		}
		cancel()
	}
}

// TestAuditContextCanceledThenRetry asserts a canceled audit leaves the
// incremental session consistent: a later audit with a live context
// returns the real verdict. This covers the warm-solver path's
// ClearInterrupt — without it, the first cancellation would permanently
// poison the persistent solver.
func TestAuditContextCanceledThenRetry(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 120, Seed: 3})
	inc := NewIncremental(Options{Level: AdyaSI})
	for _, tx := range h.Txns[1:] {
		t2 := *tx
		inc.Append(&t2)
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}

	// First audit (cold) succeeds, arming the warm path.
	if rep := inc.Audit(); rep.Outcome != Accept {
		t.Fatalf("cold audit: %v", rep.Outcome)
	}

	// Grow the history with blind writes on fresh keys and sessions (no
	// reads, so the extension cannot invalidate anything), then audit with
	// a dead context: Timeout.
	for i := 0; i < 3; i++ {
		inc.Append(&history.Txn{
			Session:      int32(1000 + i),
			SeqInSession: 0,
			Ops: []history.Op{{
				Kind:    history.OpWrite,
				Key:     history.Key("zz"),
				WriteID: history.WriteID(1_000_000 + i),
			}},
		})
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep := inc.AuditContext(ctx); rep.Outcome != Timeout {
		t.Fatalf("canceled warm audit: %v", rep.Outcome)
	}

	// Retry with a live context: the session must still produce the true
	// verdict (and the interrupt must not be sticky).
	if rep := inc.Audit(); rep.Outcome != Accept {
		t.Fatalf("retry after cancel: %v", rep.Outcome)
	}
}
