package experiments

import (
	"context"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Figure3 reproduces Figure 3: the BSGF queries A1–A5 under SEQ, PAR,
// GREEDY, HPAR, HPARS, PPAR (and 1-ROUND where applicable), reporting
// net time, total time, input and communication volume — absolute and
// relative to SEQ.
func Figure3(ctx context.Context, cfg Config) (*Table, error) {
	return bsgfFigure(ctx, cfg, "E1", "Figure 3: BSGF queries A1-A5 by strategy", workload.AQueries())
}

// Figure4 reproduces Figure 4: the large BSGF queries B1 and B2.
func Figure4(ctx context.Context, cfg Config) (*Table, error) {
	return bsgfFigure(ctx, cfg, "E2", "Figure 4: large BSGF queries B1-B2 by strategy", workload.BQueries())
}

func bsgfFigure(ctx context.Context, cfg Config, id, title string, wls []workload.Workload) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"query", "strategy", "net", "total", "input", "comm", "net%seq", "tot%seq", "in%seq", "comm%seq"},
	}
	for _, wl := range wls {
		db := wl.Build(cfg.Scale)
		results, err := cfg.runStrategies(ctx, wl, db, bsgfStrategies(wl))
		if err != nil {
			return nil, err
		}
		base := results[0].Metrics // SEQ is first
		for _, r := range results {
			m := r.Metrics
			t.AddRow(wl.Name, string(r.Strategy),
				fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmtGB(m.InputMB), fmtGB(m.CommMB),
				fmtRel(m.NetTime, base.NetTime), fmtRel(m.TotalTime, base.TotalTime),
				fmtRel(m.InputMB, base.InputMB), fmtRel(m.CommMB, base.CommMB))
		}
	}
	t.AddNote("run at scale %g of the paper's 100M-tuple relations; times/volumes reported in paper-equivalent units (cost model is scale-invariant, see cost.Config.Scaled)", cfg.Scale)
	return t, nil
}

// Figure5 reproduces Figure 5: the SGF query sets C1–C4 under SEQUNIT,
// PARUNIT and GREEDY-SGF, with values relative to SEQUNIT.
func Figure5(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Figure 5: SGF queries C1-C4, values relative to SEQUNIT",
		Header: []string{"query", "strategy", "net%", "total%", "input%", "comm%", "net", "total"},
	}
	for _, wl := range workload.CQueries() {
		db := wl.Build(cfg.Scale)
		results, err := cfg.runStrategies(ctx, wl, db, sgfStrategies())
		if err != nil {
			return nil, err
		}
		base := results[0].Metrics // SEQUNIT first
		for _, r := range results {
			m := r.Metrics
			t.AddRow(wl.Name, string(r.Strategy),
				fmtRel(m.NetTime, base.NetTime), fmtRel(m.TotalTime, base.TotalTime),
				fmtRel(m.InputMB, base.InputMB), fmtRel(m.CommMB, base.CommMB),
				fmtSecs(m.NetTime), fmtSecs(m.TotalTime))
		}
	}
	// §5.3 also reports that Greedy-SGF's sorts matched the brute-force
	// optimum for all tested queries; record the comparison.
	for _, wl := range workload.CQueries() {
		db := wl.Build(cfg.Scale)
		est := coreEstimator(cfg, wl, db)
		greedy := core.GreedySGF(wl.Program)
		greedyCost := est.SortCost(wl.Program, greedy)
		_, optCost, err := est.BruteForceSGF(wl.Program)
		if err != nil {
			return nil, err
		}
		t.AddNote("%s: Greedy-SGF sort cost %.1f vs brute-force optimal %.1f (ratio %.3f)",
			wl.Name, greedyCost, optCost, greedyCost/optCost)
	}
	return t, nil
}

func coreEstimator(cfg Config, wl workload.Workload, db *relation.Database) *core.Estimator {
	return core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
}
