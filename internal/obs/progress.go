package obs

import (
	"fmt"
	"runtime"
)

// Snapshot is a point-in-time view of a running (or finished) check: which
// phase it is in and the counters accumulated so far. Snapshots are plain
// immutable values — the checker publishes a fresh one at every phase
// boundary and sampling tick, so readers on other goroutines (a Checker's
// Progress method, a CLI progress stream) never share mutable state with
// the check itself.
//
// Counter semantics follow the Report fields they mirror: on a warm
// incremental session the solver counters are cumulative across audits
// (the solver lives across audits) and the graph counts describe the
// session, while the resolution and timestamp counters count the current
// audit's work.
type Snapshot struct {
	// Phase is the innermost phase at the time of the snapshot: one of
	// "construct", "encode", "solve", or "done".
	Phase string `json:"phase"`
	// Audit is the session audit ordinal (0 for one-shot checks); Txns the
	// appended transaction count.
	Audit int `json:"audit"`
	Txns  int `json:"txns"`
	// ElapsedNS is the time since the enclosing check/audit began.
	ElapsedNS int64 `json:"elapsed_ns"`

	// Graph counters. ResolvedConstraints/ForcedEdges mirror the Report
	// fields of the same name: constraints discharged (and edges forced)
	// by the sound pre-solve resolution pass, never by the evidence pass
	// that follows a refutation.
	Nodes               int `json:"nodes"`
	KnownEdges          int `json:"known_edges"`
	Constraints         int `json:"constraints"`
	PrunedConstraints   int `json:"pruned_constraints"`
	ResolvedConstraints int `json:"resolved_constraints"`
	ForcedEdges         int `json:"forced_edges"`
	// TSDecided/TSResidual mirror the Report fields: constraints the
	// timestamp fast path decided from the history's begin/commit stamps
	// versus left for the solver.
	TSDecided  int `json:"ts_decided"`
	TSResidual int `json:"ts_residual"`
	EdgeVars   int `json:"edge_vars"`

	// Solver counters (sat.Stats).
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Learnts      int64 `json:"learnts"`
	Restarts     int64 `json:"restarts"`
	TheoryConfl  int64 `json:"theory_conflicts"`

	// Acyclicity-theory counters: Pearce–Kelly order repairs performed and
	// total nodes moved by them.
	Reorders       int64 `json:"reorders"`
	ReorderedNodes int64 `json:"reordered_nodes"`

	// Memory gauges (final snapshots only): the live window's estimated
	// history footprint, the row storage of the largest resolution closure
	// the check or audit built (one-shot checks report it too), and the
	// checkpoint certificate's count and size. These are what a
	// checkpoint policy bounds; omitted from JSON while zero.
	HistoryBytes int64 `json:"history_bytes,omitempty"`
	ClosureBytes int64 `json:"closure_bytes,omitempty"`
	Checkpoints  int   `json:"checkpoints,omitempty"`
	CertBytes    int64 `json:"cert_bytes,omitempty"`

	// HeapInUse is the process's live heap at sampling time (bytes); zero
	// when the snapshot was published on a boundary with sampling disabled
	// (reading it stops the world briefly, so the disabled path skips it).
	HeapInUse uint64 `json:"heap_in_use"`
}

// String renders the snapshot as a single machine-grepable progress line.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"phase=%s audit=%d txns=%d elapsed=%.3fs conflicts=%d decisions=%d props=%d learnts=%d restarts=%d thconfl=%d reorders=%d pruned=%d resolved=%d forced=%d tsdec=%d tsres=%d edgevars=%d hist=%.1fMB closure=%.1fMB cp=%d heap=%.1fMB",
		s.Phase, s.Audit, s.Txns, float64(s.ElapsedNS)/1e9,
		s.Conflicts, s.Decisions, s.Propagations, s.Learnts, s.Restarts,
		s.TheoryConfl, s.Reorders, s.PrunedConstraints, s.ResolvedConstraints,
		s.ForcedEdges, s.TSDecided, s.TSResidual, s.EdgeVars,
		float64(s.HistoryBytes)/(1<<20), float64(s.ClosureBytes)/(1<<20),
		s.Checkpoints, float64(s.HeapInUse)/(1<<20))
}

// HeapInUse reads the live heap size. It is only called on sampling ticks
// and enabled-path phase boundaries — never on the disabled fast path —
// because ReadMemStats briefly stops the world.
func HeapInUse() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}
