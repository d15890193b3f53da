package experiments

import (
	"fmt"

	"viper/internal/anomaly"
	"viper/internal/baseline"
	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/workload"
)

// cloneHistory deep-copies a history so an anomaly can be injected without
// mutating the shared base.
func cloneHistory(h *history.History) (*history.History, error) {
	c := history.New()
	for _, t := range h.Txns[1:] {
		nt := *t
		nt.Ops = append([]history.Op(nil), t.Ops...)
		c.Append(&nt)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Resolve is the constraint-resolution ablation (not a paper figure — it
// tracks this repo's own optimization): viper with and without the
// known-graph closure passes, on the standard workloads in both healthy
// and violating variants. Columns report end-to-end runtime for each
// configuration, the fraction of constraints the pre-solve pass
// discharged before the solver, and the edges it forced. The histories
// come from runner, so they carry timestamps, and rows vary from run to
// run. Expected shape: on healthy histories the timestamp stage decides
// every constraint, so resolution never runs (0 resolved) and the two
// columns agree. On violating histories the solver refutes in both
// columns, and the resolve column pays on top for the evidence pass that
// names the cycle, whose counts are not reported: 0 resolved when the
// timestamp pass itself is refuted (G-SIb), about a third of the
// constraints when it fails only its chosen sides and the full-set
// pre-solve pass runs before the §3.5 passes refute (lost update).
func Resolve(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "resolve",
		Title:  "pre-solve resolution ablation (seconds; resolved% of constraints)",
		Header: []string{"history", "#txns", "Viper", "w/o resolve", "resolved%", "forced"},
	}
	sizes := cfg.sizes([]int{1000, 2000})
	for _, size := range sizes {
		base, err := genHistory(workload.NewBlindWRW(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		type variant struct {
			label string
			kind  anomaly.Kind
			bad   bool
		}
		for _, v := range []variant{
			{label: "blindw-rw", bad: false},
			{label: "blindw-rw+g-sib", kind: anomaly.GSIb, bad: true},
			{label: "blindw-rw+lost-update", kind: anomaly.LostUpdate, bad: true},
		} {
			h := base
			if v.bad {
				cl, err := cloneHistory(base)
				if err != nil {
					return nil, err
				}
				h = anomaly.Inject(cl, v.kind)
				if err := h.Validate(); err != nil {
					return nil, err
				}
			}
			on := &baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism, DisableTSFastPath: cfg.DisableTSFastPath}}
			off := &baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism, DisableResolve: true, DisableTSFastPath: cfg.DisableTSFastPath}}
			ron := on.Check(h, cfg.timeout())
			roff := off.Check(h, cfg.timeout())
			if ron.Outcome != roff.Outcome {
				return nil, fmt.Errorf("resolve ablation: verdicts diverge on %s/%d: %v vs %v",
					v.label, size, ron.Outcome, roff.Outcome)
			}
			resolvedPct := "0"
			if rep := on.LastReport; rep != nil && rep.Constraints > 0 {
				resolvedPct = fmt.Sprintf("%.0f", 100*float64(rep.ResolvedConstraints)/float64(rep.Constraints))
			} else if rep != nil && rep.ResolvedConstraints > 0 {
				resolvedPct = "100"
			}
			forced := 0
			if on.LastReport != nil {
				forced = on.LastReport.ForcedEdges
			}
			t.Rows = append(t.Rows, []string{
				v.label, fmt.Sprint(size), cell(ron), cell(roff), resolvedPct, fmt.Sprint(forced),
			})
		}
	}
	return t, nil
}
