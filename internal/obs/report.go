package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// ReportVersion is the schema version of ReportDoc. It is bumped on any
// incompatible change to the document's structure or field semantics;
// DecodeReport rejects documents from a different major schema so
// downstream tooling fails loudly instead of misreading fields.
const ReportVersion = 1

// HostInfo describes the machine a report was produced on. Golden-report
// tests normalize it away (see Normalize).
type HostInfo struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
}

// NewHost captures the current host.
func NewHost() HostInfo {
	return HostInfo{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// HistoryInfo summarizes the checked history.
type HistoryInfo struct {
	Path     string `json:"path,omitempty"`
	Txns     int    `json:"txns"`
	Aborted  int    `json:"aborted"`
	Sessions int    `json:"sessions"`
}

// GraphInfo carries the polygraph and solver-pass counters of the
// report (core.Report's graph-side fields, flattened for a stable JSON
// shape independent of internal struct layout).
type GraphInfo struct {
	Nodes               int `json:"nodes"`
	KnownEdges          int `json:"known_edges"`
	Constraints         int `json:"constraints"`
	EdgeVars            int `json:"edge_vars"`
	ResolvedConstraints int `json:"resolved_constraints"`
	ForcedEdges         int `json:"forced_edges"`
	// TSDecided/TSResidual count the constraints the timestamp fast path
	// decided from the history's begin/commit stamps versus left for the
	// solver; TSUnusable carries the reason the fast path declined to run
	// (empty when it ran or was disabled).
	TSDecided         int    `json:"ts_decided"`
	TSResidual        int    `json:"ts_residual"`
	TSUnusable        string `json:"ts_unusable,omitempty"`
	PrunedConstraints int    `json:"pruned_constraints"`
	HeuristicEdges    int    `json:"heuristic_edges"`
	Retries           int    `json:"retries"`
	FinalK            int    `json:"final_k"`
	ConstructWorkers  int    `json:"construct_workers"`
}

// PhaseInfo is the Figure 10 runtime decomposition in nanoseconds.
type PhaseInfo struct {
	ParseNS        int64 `json:"parse_ns"`
	ConstructNS    int64 `json:"construct_ns"`
	ConstructCPUNS int64 `json:"construct_cpu_ns"`
	EncodeNS       int64 `json:"encode_ns"`
	ResolveNS      int64 `json:"resolve_ns"`
	TSOrderNS      int64 `json:"ts_order_ns"`
	SolveNS        int64 `json:"solve_ns"`
}

// SolverInfo carries the SAT solver's counters (sat.Stats) plus the
// acyclicity theory's reorder work.
type SolverInfo struct {
	Vars           int   `json:"vars"`
	Clauses        int   `json:"clauses"`
	Learnts        int   `json:"learnts"`
	Conflicts      int64 `json:"conflicts"`
	Decisions      int64 `json:"decisions"`
	Propagations   int64 `json:"propagations"`
	Restarts       int64 `json:"restarts"`
	TheoryConfl    int64 `json:"theory_conflicts"`
	Reorders       int64 `json:"reorders"`
	ReorderedNodes int64 `json:"reordered_nodes"`
}

// CheckpointInfo summarizes a session's checkpoint certificate: how much
// history has been compacted behind the fence and what the certificate
// costs to carry. Present only on reports from checkpointed sessions.
type CheckpointInfo struct {
	Count           int   `json:"count"`
	FencedTxns      int   `json:"fenced_txns"`
	FencedCommitted int   `json:"fenced_committed"`
	FencedOps       int64 `json:"fenced_ops"`
	Keys            int   `json:"keys"`
	WriteIDs        int   `json:"write_ids"`
	TxnIDBase       int64 `json:"txn_id_base"`
	CertBytes       int64 `json:"cert_bytes"`
}

// ClusterShard describes one key-range shard of a distributed check:
// which node recorded it and how much of the polygraph it contributed.
type ClusterShard struct {
	Node string `json:"node"`
	// Keys/Txns are the shard's key count and the number of transactions
	// with at least one operation on a shard key.
	Keys int `json:"keys"`
	Txns int `json:"txns"`
	// KnownEdges/Constraints count the shard digest's emissions (before
	// merge-time dedup against other shards' edges).
	KnownEdges  int `json:"known_edges"`
	Constraints int `json:"constraints"`
	// Local marks a shard the coordinator computed itself (no workers, or
	// every dispatch attempt failed).
	Local bool `json:"local,omitempty"`
	// WireBytesOut/WireBytesIn are the bytes the shard put on the wire:
	// the encoded job shipped to the worker and the digest shipped back.
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64 `json:"wire_bytes_in,omitempty"`
	// EncodeNS/DecodeNS are the coordinator-side codec spans for this
	// shard. Encode overlaps the upload (the job streams as it encodes)
	// and decode overlaps the worker's recording (digest records replay
	// as they arrive), so these are spans, not additive costs.
	EncodeNS int64 `json:"encode_ns,omitempty"`
	DecodeNS int64 `json:"decode_ns,omitempty"`
}

// ClusterInfo describes how a distributed check (POST /cluster/check)
// was spread over the fleet. Present only on coordinator reports.
type ClusterInfo struct {
	Coordinator string         `json:"coordinator"`
	Workers     int            `json:"workers"`
	Shards      []ClusterShard `json:"shards"`
	// CrossShardEdges/CrossShardConstraints count digest emissions with at
	// least one endpoint transaction that also operates on other shards —
	// the couplings the merged polygraph reconciles, through which a
	// violation cycle can span shards.
	CrossShardEdges       int `json:"cross_shard_edges"`
	CrossShardConstraints int `json:"cross_shard_constraints"`
	// LocalFallbacks counts shards that fell back to coordinator-local
	// recording after dispatch failures.
	LocalFallbacks int   `json:"local_fallbacks,omitempty"`
	MergeNS        int64 `json:"merge_ns"`
	// WireBytesOut/WireBytesIn total the shards' bytes on the wire.
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64 `json:"wire_bytes_in,omitempty"`
	// EncodeNS/DecodeNS sum the per-shard codec spans; ReplayNS is the
	// merger's cumulative record-replay time. All three overlap network
	// time (and each other, across concurrent shards).
	EncodeNS int64 `json:"encode_ns,omitempty"`
	DecodeNS int64 `json:"decode_ns,omitempty"`
	ReplayNS int64 `json:"replay_ns,omitempty"`
}

// CycleEdge is one edge of a counterexample cycle, with node names
// rendered by the polygraph (e.g. "c(T3)") and edge provenance.
type CycleEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`
}

// MatrixRow is one isolation level's verdict within a matrix audit.
type MatrixRow struct {
	Level   string `json:"level"`
	Outcome string `json:"outcome"`
	// Derived marks a verdict implied by lattice monotonicity instead of
	// checked directly; From names the implying level.
	Derived bool   `json:"derived,omitempty"`
	From    string `json:"from,omitempty"`
	// Anomaly / KnownCycle / WitnessVerified carry the level's evidence
	// when the level ran its own check.
	Anomaly         string      `json:"anomaly,omitempty"`
	KnownCycle      []CycleEdge `json:"known_cycle,omitempty"`
	WitnessVerified bool        `json:"witness_verified,omitempty"`
	Nodes           int         `json:"nodes,omitempty"`
	KnownEdges      int         `json:"known_edges,omitempty"`
	Constraints     int         `json:"constraints,omitempty"`
}

// MatrixInfo is the verdict matrix of a matrix audit: one row per checked
// level (in lattice order) plus the summary.
type MatrixInfo struct {
	Rows []MatrixRow `json:"rows"`
	// Violated / WeakestViolated: whether any level rejected and, if so,
	// the weakest rejecting level — the headline anomaly classification.
	Violated        bool   `json:"violated"`
	WeakestViolated string `json:"weakest_violated,omitempty"`
	// Satisfied / StrongestSatisfied mirror that for accepts.
	Satisfied          bool   `json:"satisfied"`
	StrongestSatisfied string `json:"strongest_satisfied,omitempty"`
	// Checked counts levels that ran their own check this audit.
	Checked int   `json:"checked"`
	WallNS  int64 `json:"wall_ns"`
}

// ReportDoc is the versioned machine-readable report the CLIs emit
// (-report-json): verdict, history and graph statistics, the Figure 10
// phase decomposition, solver counters, any counterexample, the final
// progress snapshot, and — when tracing was enabled — the span tree.
type ReportDoc struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// ToolVersion is the emitting tool's build version (one shared string
	// across the suite; see internal/version).
	ToolVersion string `json:"tool_version,omitempty"`
	Level       string `json:"level"`
	Outcome     string `json:"outcome"`

	Host    HostInfo    `json:"host"`
	History HistoryInfo `json:"history"`

	// Violation is the validation-level rejection, if any; when set the
	// graph/solver sections are absent (checking stopped before them).
	Violation string `json:"violation,omitempty"`

	Graph  GraphInfo  `json:"graph"`
	Phases PhaseInfo  `json:"phases"`
	Solver SolverInfo `json:"solver"`

	// Anomaly names a polynomially-detected anomaly (e.g. a G1b
	// intermediate read) that rejected the history before graph analysis.
	Anomaly         string      `json:"anomaly,omitempty"`
	KnownCycle      []CycleEdge `json:"known_cycle,omitempty"`
	WitnessVerified bool        `json:"witness_verified,omitempty"`

	// Matrix is present on matrix audits (-matrix / ?matrix=1): the
	// per-level verdicts; Level is then "matrix" and Outcome the
	// aggregate (reject if any level rejected, else timeout if any timed
	// out, else accept). Graph/Solver/Phases/Final describe the primary
	// (snapshot-isolation) check of the pass.
	Matrix *MatrixInfo `json:"matrix,omitempty"`

	// Checkpoint describes the session's checkpoint certificate; absent
	// when the session never checkpointed.
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`

	// Cluster describes a distributed check's sharding; absent on
	// single-node reports.
	Cluster *ClusterInfo `json:"cluster,omitempty"`

	Final *Snapshot `json:"final,omitempty"`
	Trace *Trace    `json:"trace,omitempty"`
}

// Encode writes the document as indented JSON followed by a newline.
func (d *ReportDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeReport parses a document produced by Encode, verifying the schema
// version.
func DecodeReport(r io.Reader) (*ReportDoc, error) {
	var d ReportDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: decoding report: %w", err)
	}
	if d.Version != ReportVersion {
		return nil, fmt.Errorf("obs: report version %d, this tool reads %d", d.Version, ReportVersion)
	}
	return &d, nil
}

// Normalize zeroes every host-, build-, and timing-dependent field in
// place, so two reports of the same check on different machines (or
// runs, or tool releases) compare equal. This is the exact field list
// the golden-report tests rely on: all durations, heap sizes, host
// identity, tool version, and file paths; counters and verdicts are
// untouched.
func (d *ReportDoc) Normalize() {
	d.Host = HostInfo{}
	d.ToolVersion = ""
	d.History.Path = ""
	d.Phases = PhaseInfo{}
	if d.Matrix != nil {
		d.Matrix.WallNS = 0
	}
	if d.Cluster != nil {
		d.Cluster.MergeNS = 0
		d.Cluster.EncodeNS, d.Cluster.DecodeNS, d.Cluster.ReplayNS = 0, 0, 0
		for i := range d.Cluster.Shards {
			d.Cluster.Shards[i].EncodeNS = 0
			d.Cluster.Shards[i].DecodeNS = 0
		}
	}
	if d.Final != nil {
		d.Final.ElapsedNS = 0
		d.Final.HeapInUse = 0
	}
	if d.Trace != nil {
		d.Trace.DurNS = 0
		var walk func([]*Span)
		walk = func(spans []*Span) {
			for _, s := range spans {
				s.StartNS, s.DurNS = 0, 0
				walk(s.Children)
			}
		}
		walk(d.Trace.Spans)
	}
}
