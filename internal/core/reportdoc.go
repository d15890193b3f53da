// Report-document assembly: maps a check's internal Report (plus history
// statistics, any validation violation, and a recorded trace) onto the
// versioned, exportable obs.ReportDoc. This lives in core — not in the
// CLIs — because every surface that emits reports (cmd/viper's
// -report-json, viperd's audit responses) must produce byte-identical
// documents for the same check; the daemon's end-to-end tests compare
// its responses against offline checks through this one function.
package core

import (
	"fmt"
	"time"

	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/version"
)

// BuildReportDoc assembles the exportable report document for one check.
// tool names the emitting surface ("viper", "viperd"); path is the
// history's origin (empty for streamed histories). h and rep may be nil
// (a history that failed to load or validate has no graph report);
// violation is the validation-level rejection, if any.
func BuildReportDoc(tool, path string, h *history.History, parse time.Duration, rep *Report, violation error, opts Options, tracer *obs.Tracer) *obs.ReportDoc {
	doc := &obs.ReportDoc{
		Version:     obs.ReportVersion,
		Tool:        tool,
		ToolVersion: version.Version,
		Level:       opts.Level.String(),
		Host:        obs.NewHost(),
		History:     obs.HistoryInfo{Path: path},
		Trace:       tracer.Trace(),
	}
	if h != nil {
		st := h.ComputeStats()
		doc.History.Txns = st.Txns
		doc.History.Aborted = st.Aborted
		doc.History.Sessions = st.Sessions
		// History counts describe the live (checked) window; the compacted
		// prefix is accounted for in the checkpoint section.
		if f := h.Fence(); f != nil {
			doc.Checkpoint = &obs.CheckpointInfo{
				Count:           f.Checkpoints,
				FencedTxns:      f.Txns,
				FencedCommitted: f.Committed,
				FencedOps:       f.Ops,
				Keys:            len(f.Latest),
				WriteIDs:        len(f.Writes),
				TxnIDBase:       f.Base,
				CertBytes:       f.Bytes(),
			}
		}
	}
	if violation != nil {
		doc.Outcome = Reject.String()
		doc.Violation = violation.Error()
		doc.Phases.ParseNS = int64(parse)
		return doc
	}
	if rep == nil {
		return doc
	}
	doc.Outcome = rep.Outcome.String()
	doc.Graph = obs.GraphInfo{
		Nodes:               rep.Nodes,
		KnownEdges:          rep.KnownEdges,
		Constraints:         rep.Constraints,
		EdgeVars:            rep.EdgeVars,
		ResolvedConstraints: rep.ResolvedConstraints,
		ForcedEdges:         rep.ForcedEdges,
		TSDecided:           rep.TSDecided,
		TSResidual:          rep.TSResidual,
		TSUnusable:          rep.TSUnusable,
		PrunedConstraints:   rep.PrunedConstraints,
		HeuristicEdges:      rep.HeuristicEdges,
		Retries:             rep.Retries,
		FinalK:              rep.FinalK,
		ConstructWorkers:    rep.ConstructWorkers,
	}
	doc.Phases = obs.PhaseInfo{
		ParseNS:        int64(parse),
		ConstructNS:    int64(rep.Phases.Construct),
		ConstructCPUNS: int64(rep.Phases.ConstructCPU),
		EncodeNS:       int64(rep.Phases.Encode),
		ResolveNS:      int64(rep.Phases.Resolve),
		TSOrderNS:      int64(rep.Phases.TSOrder),
		SolveNS:        int64(rep.Phases.Solve),
	}
	doc.Solver = obs.SolverInfo{
		Vars:           rep.Solver.Vars,
		Clauses:        rep.Solver.Clauses,
		Learnts:        rep.Solver.Learnts,
		Conflicts:      rep.Solver.Conflicts,
		Decisions:      rep.Solver.Decisions,
		Propagations:   rep.Solver.Propagations,
		Restarts:       rep.Solver.Restarts,
		TheoryConfl:    rep.Solver.TheoryConfl,
		Reorders:       rep.Reorders,
		ReorderedNodes: rep.ReorderedNodes,
	}
	doc.WitnessVerified = rep.WitnessVerified
	doc.Anomaly = rep.Anomaly
	if rep.KnownCycle != nil && h != nil {
		doc.KnownCycle = RenderCycle(h, rep.KnownCycle, opts)
	}
	final := rep.Snapshot()
	final.Txns = doc.History.Txns
	doc.Final = &final
	return doc
}

// RenderCycle maps a counterexample cycle onto named edges. The
// polynomial levels' nodes are transaction ids of the forced commit-order
// relation; the solver levels' nodes are polygraph event nodes, named by
// the node layout at the report's level. The layout alone fixes every
// name: event nodes come from transaction ids and the fence, and the
// real-time levels' auxiliary nodes all sit above them.
func RenderCycle(h *history.History, cycle []KnownEdge, opts Options) []obs.CycleEdge {
	name := func(n int32) string { return txnNodeName(h, n) }
	if !opts.Level.Polynomial() {
		name = newPolygraph(h, opts.Level).NodeName
	}
	out := make([]obs.CycleEdge, 0, len(cycle))
	for _, ke := range cycle {
		out = append(out, obs.CycleEdge{
			From: name(ke.From),
			To:   name(ke.To),
			Kind: ke.Kind.String(),
			Key:  string(ke.Key),
		})
	}
	return out
}

// txnNodeName renders a transaction-id node (the polynomial levels'
// commit-order graph), honoring checkpoint external ids like the
// polygraph's NodeName does.
func txnNodeName(h *history.History, n int32) string {
	if f := h.Fence(); f != nil {
		return fmt.Sprintf("T%d", f.ExternalID(history.TxnID(n)))
	}
	return fmt.Sprintf("T%d", n)
}

// BuildMatrixDoc assembles the exportable report document for one matrix
// audit. The document's Level is "matrix" and its Outcome the aggregate
// verdict; the per-level rows live under Matrix. Graph, Solver, Phases,
// and Final carry the primary (AdyaSI) check's counters, so matrix
// documents remain comparable with single-level SI documents. mr may be
// nil when violation is set.
func BuildMatrixDoc(tool, path string, h *history.History, parse time.Duration, mr *MatrixReport, violation error, opts Options, tracer *obs.Tracer) *obs.ReportDoc {
	siOpts := opts
	siOpts.Level = AdyaSI
	var siRep *Report
	if mr != nil {
		if v := mr.Verdict(AdyaSI); v != nil {
			siRep = v.Report
		}
	}
	doc := BuildReportDoc(tool, path, h, parse, siRep, violation, siOpts, tracer)
	doc.Level = "matrix"
	if violation != nil || mr == nil {
		return doc
	}
	doc.Outcome = mr.Outcome().String()
	// The top-level evidence fields describe the primary check; each row
	// carries its own.
	doc.Anomaly, doc.KnownCycle, doc.WitnessVerified = "", nil, false

	mi := &obs.MatrixInfo{
		Violated:  mr.Violated,
		Satisfied: mr.Satisfied,
		Checked:   mr.Checked,
		WallNS:    int64(mr.Wall),
	}
	if mr.Violated {
		mi.WeakestViolated = mr.WeakestViolated.String()
	}
	if mr.Satisfied {
		mi.StrongestSatisfied = mr.StrongestSatisfied.String()
	}
	for i := range mr.Verdicts {
		v := &mr.Verdicts[i]
		row := obs.MatrixRow{Level: v.Level.String(), Outcome: v.Outcome.String()}
		if v.Derived {
			row.Derived, row.From = true, v.From.String()
		}
		if rep := v.Report; rep != nil {
			row.Anomaly = rep.Anomaly
			row.WitnessVerified = rep.WitnessVerified
			row.Nodes = rep.Nodes
			row.KnownEdges = rep.KnownEdges
			row.Constraints = rep.Constraints
			if rep.KnownCycle != nil && h != nil {
				lvlOpts := opts
				lvlOpts.Level = v.Level
				row.KnownCycle = RenderCycle(h, rep.KnownCycle, lvlOpts)
			}
		}
		mi.Rows = append(mi.Rows, row)
	}
	doc.Matrix = mi
	return doc
}
