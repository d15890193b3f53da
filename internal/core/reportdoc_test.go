package core

import (
	"errors"
	"fmt"
	"testing"

	"viper/internal/history"
	"viper/internal/obs"
)

// TestBuildReportDocMirrorsReport: the document carries the report's
// verdict, graph counters, phase timings and final snapshot, and the
// history's statistics.
func TestBuildReportDocMirrorsReport(t *testing.T) {
	h := writeSkew(t)
	opts := Options{Level: AdyaSI, SelfCheck: true}
	rep := CheckHistory(h, opts)
	tr := obs.NewTracer()
	doc := BuildReportDoc("viper", "skew.jsonl", h, 7, rep, nil, opts, tr)

	st := h.ComputeStats()
	switch {
	case doc.Version != obs.ReportVersion || doc.Tool != "viper" || doc.Level != AdyaSI.String():
		t.Fatalf("header: version %d tool %q level %q", doc.Version, doc.Tool, doc.Level)
	case doc.Outcome != rep.Outcome.String():
		t.Fatalf("outcome %q, report %v", doc.Outcome, rep.Outcome)
	case doc.History.Path != "skew.jsonl" || doc.History.Txns != st.Txns || doc.History.Sessions != st.Sessions:
		t.Fatalf("history section %+v, stats %+v", doc.History, st)
	case doc.Graph.Nodes != rep.Nodes || doc.Graph.KnownEdges != rep.KnownEdges || doc.Graph.Constraints != rep.Constraints:
		t.Fatalf("graph section %+v, report nodes %d known %d cons %d", doc.Graph, rep.Nodes, rep.KnownEdges, rep.Constraints)
	case doc.Graph.TSDecided != rep.TSDecided || doc.Graph.ConstructWorkers != rep.ConstructWorkers:
		t.Fatalf("graph section %+v, report ts %d workers %d", doc.Graph, rep.TSDecided, rep.ConstructWorkers)
	case doc.Phases.ParseNS != 7 || doc.Phases.ConstructNS != int64(rep.Phases.Construct):
		t.Fatalf("phases %+v, report %+v", doc.Phases, rep.Phases)
	case doc.Solver.Conflicts != rep.Solver.Conflicts || doc.WitnessVerified != rep.WitnessVerified:
		t.Fatalf("solver %+v witness %v, report %+v %v", doc.Solver, doc.WitnessVerified, rep.Solver, rep.WitnessVerified)
	case doc.Final == nil || doc.Final.Txns != st.Txns:
		t.Fatalf("final snapshot %+v, want txns %d", doc.Final, st.Txns)
	case doc.Checkpoint != nil || doc.KnownCycle != nil || doc.Violation != "":
		t.Fatalf("unexpected sections: checkpoint %+v cycle %v violation %q", doc.Checkpoint, doc.KnownCycle, doc.Violation)
	}

	// A validation failure stops before any graph report.
	bad := BuildReportDoc("viperd", "", h, 3, nil, errors.New("g1a: aborted read"), opts, nil)
	if bad.Outcome != Reject.String() || bad.Violation != "g1a: aborted read" || bad.Phases.ParseNS != 3 || bad.Graph != (obs.GraphInfo{}) {
		t.Fatalf("violation doc: outcome %q violation %q phases %+v graph %+v", bad.Outcome, bad.Violation, bad.Phases, bad.Graph)
	}
	// A history that never loaded has no sections at all.
	if empty := BuildReportDoc("viper", "x", nil, 0, nil, nil, opts, nil); empty.Outcome != "" || empty.History.Txns != 0 || empty.Final != nil {
		t.Fatalf("empty doc: %+v", empty)
	}
}

// fencedLongFork streams four accepted transactions into an AdyaSI
// session, checkpoints all of them, then streams a long fork. It returns
// the session's live history, behind a fence with a nonzero base, and the
// rejecting report, which carries a known cycle.
func fencedLongFork(t *testing.T) (*history.History, *Report) {
	t.Helper()
	b := history.NewBuilder()
	pre := b.Session()
	for i := 0; i < 4; i++ {
		pre.Txn().Write("a").Commit()
	}
	addLongFork(b)
	h := b.MustHistory()

	inc := NewIncremental(Options{Level: AdyaSI})
	if rep := inc.mustAudit(t, h.Txns[1:5]...); rep.Outcome != Accept {
		t.Fatalf("prefix audit: %v", rep.Outcome)
	}
	if _, err := inc.Checkpoint(0); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rep := inc.mustAudit(t, h.Txns[5:]...)
	if rep.Outcome != Reject || len(rep.KnownCycle) == 0 {
		t.Fatalf("long fork behind a fence: outcome %v, cycle %v", rep.Outcome, rep.KnownCycle)
	}
	live := inc.History()
	if f := live.Fence(); f == nil || f.Base == 0 {
		t.Fatalf("expected a fence with a nonzero base, got %+v", f)
	}
	return live, rep
}

// TestReportDocCycleNamesBehindFence: after a checkpoint, the rendered
// counterexample names the external transaction ids the client streamed,
// and the checkpoint section describes the fence.
func TestReportDocCycleNamesBehindFence(t *testing.T) {
	live, rep := fencedLongFork(t)
	f := live.Fence()
	opts := Options{Level: AdyaSI}
	doc := BuildReportDoc("viper", "", live, 0, rep, nil, opts, nil)
	if doc.Checkpoint == nil || doc.Checkpoint.FencedTxns != f.Txns || doc.Checkpoint.TxnIDBase != f.Base {
		t.Fatalf("checkpoint section %+v, fence base %d txns %d", doc.Checkpoint, f.Base, f.Txns)
	}
	name := func(n int32) string {
		return fmt.Sprintf("%c%d", "BC"[n%2], f.ExternalID(history.TxnID(n/2)))
	}
	if len(doc.KnownCycle) != len(rep.KnownCycle) {
		t.Fatalf("rendered %d cycle edges, report has %d", len(doc.KnownCycle), len(rep.KnownCycle))
	}
	for i, ke := range rep.KnownCycle {
		ce := doc.KnownCycle[i]
		if ce.From != name(ke.From) || ce.To != name(ke.To) || ce.Kind != ke.Kind.String() || ce.Key != string(ke.Key) {
			t.Fatalf("cycle edge %d rendered %+v, want %s->%s %v %q", i, ce, name(ke.From), name(ke.To), ke.Kind, ke.Key)
		}
	}

	// The polynomial levels' cycles are over transaction ids.
	poly := RenderCycle(live, []KnownEdge{{Edge: Edge{From: 1, To: 2}, Kind: EdgeWR, Key: "x"}}, Options{Level: ReadCommitted})
	want := []string{fmt.Sprintf("T%d", f.ExternalID(1)), fmt.Sprintf("T%d", f.ExternalID(2))}
	if len(poly) != 1 || poly[0].From != want[0] || poly[0].To != want[1] || poly[0].Kind != "wr" {
		t.Fatalf("polynomial cycle %+v, want %v", poly, want)
	}
	if got := txnNodeName(longFork(t), 3); got != "T3" {
		t.Fatalf("unfenced txn node renders %q, want T3", got)
	}
}

// TestRenderCycleNamesFromLayout: RenderCycle names solver-level nodes
// from the node layout alone, and every node of the built polygraph gets
// the polygraph's own name, auxiliary nodes and a checkpoint fence
// included.
func TestRenderCycleNamesFromLayout(t *testing.T) {
	fenced, _ := fencedLongFork(t)
	for _, h := range []*history.History{longFork(t), fenced} {
		for _, level := range []Level{AdyaSI, Serializability, StrongSI} {
			opts := Options{Level: level}
			pg := Build(h, opts)
			if level == StrongSI && pg.NumNodes == newPolygraph(h, level).NumNodes {
				t.Fatalf("%v: no auxiliary nodes to name", level)
			}
			cycle := make([]KnownEdge, pg.NumNodes)
			for n := range cycle {
				cycle[n].Edge = Edge{From: int32(n), To: (int32(n) + 1) % pg.NumNodes}
			}
			for n, ce := range RenderCycle(h, cycle, opts) {
				if want := pg.NodeName(int32(n)); ce.From != want || ce.To != pg.NodeName(cycle[n].To) {
					t.Fatalf("%v fenced=%v: node %d rendered %s->%s, want %s->%s",
						level, h.Fence() != nil, n, ce.From, ce.To, want, pg.NodeName(cycle[n].To))
				}
			}
		}
	}
}

// TestBuildReportDocCycleAllocs: naming a reject's cycle nodes needs the
// node layout only, not the polygraph, so rendering the document of a
// 2k-transaction reject allocates no more than that of a small one.
func TestBuildReportDocCycleAllocs(t *testing.T) {
	b := history.NewBuilder()
	s := b.Session()
	for i := 0; i < 2000; i++ {
		s.Txn().Write(history.Key(fmt.Sprintf("k%d", i%50))).Commit()
	}
	addLongFork(b)
	h := b.MustHistory()
	opts := Options{Level: AdyaSI}
	rep := CheckHistory(h, opts)
	if rep.Outcome != Reject || len(rep.KnownCycle) == 0 {
		t.Fatalf("outcome %v, cycle %v", rep.Outcome, rep.KnownCycle)
	}
	allocs := testing.AllocsPerRun(3, func() {
		BuildReportDoc("viperd", "", h, 0, rep, nil, opts, nil)
	})
	if allocs > 100 {
		t.Fatalf("BuildReportDoc allocated %.0f times per run, want at most 100", allocs)
	}
}

// TestBuildMatrixDoc: a matrix document carries one row per level with
// its verdict and provenance, the aggregate outcome, and the primary
// (AdyaSI) check's graph counters with the top-level evidence cleared.
func TestBuildMatrixDoc(t *testing.T) {
	h := longFork(t)
	mr := CheckMatrixHistory(h, Options{})
	doc := BuildMatrixDoc("viper", "", h, 0, mr, nil, Options{}, nil)
	si := mr.Verdict(AdyaSI)
	switch {
	case doc.Level != "matrix" || doc.Outcome != mr.Outcome().String():
		t.Fatalf("level %q outcome %q, matrix %v", doc.Level, doc.Outcome, mr.Outcome())
	case doc.Matrix == nil || len(doc.Matrix.Rows) != len(mr.Verdicts):
		t.Fatalf("matrix section %+v for %d verdicts", doc.Matrix, len(mr.Verdicts))
	case doc.Matrix.Violated != mr.Violated || doc.Matrix.Checked != mr.Checked:
		t.Fatalf("matrix section %+v, report violated %v checked %d", doc.Matrix, mr.Violated, mr.Checked)
	case mr.Violated && doc.Matrix.WeakestViolated != mr.WeakestViolated.String():
		t.Fatalf("weakest violated %q, want %v", doc.Matrix.WeakestViolated, mr.WeakestViolated)
	case si == nil || si.Report == nil || doc.Graph.Nodes != si.Report.Nodes:
		t.Fatalf("graph section %+v does not describe the AdyaSI check", doc.Graph)
	case doc.Anomaly != "" || doc.KnownCycle != nil:
		t.Fatalf("top-level evidence not cleared: %q %v", doc.Anomaly, doc.KnownCycle)
	}
	for i := range mr.Verdicts {
		v, row := &mr.Verdicts[i], doc.Matrix.Rows[i]
		if row.Level != v.Level.String() || row.Outcome != v.Outcome.String() || row.Derived != v.Derived {
			t.Fatalf("row %d %+v, verdict %+v", i, row, *v)
		}
		if v.Report != nil && len(v.Report.KnownCycle) != len(row.KnownCycle) {
			t.Fatalf("row %d renders %d cycle edges, report has %d", i, len(row.KnownCycle), len(v.Report.KnownCycle))
		}
	}

	bad := BuildMatrixDoc("viper", "", h, 0, nil, errors.New("g1b"), Options{}, nil)
	if bad.Level != "matrix" || bad.Outcome != Reject.String() || bad.Violation != "g1b" || bad.Matrix != nil {
		t.Fatalf("violation matrix doc: %+v", bad)
	}
}
