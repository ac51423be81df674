package experiments

import (
	"context"
	"fmt"

	"repro/internal/workload"
)

// paperSizeLabel renders a sweep multiplier as the paper's tuple-count
// label (the base workload is 100M tuples).
func paperSizeLabel(mult float64) string {
	return fmt.Sprintf("%.0fM", 100*mult)
}

// Figure7a reproduces Figure 7a: query A3 with growing data size
// (200M–1600M paper tuples) on the 10-node cluster.
func Figure7a(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Figure 7a: A3, varying data size (10 nodes)",
		Header: []string{"size", "strategy", "net", "total", "input", "comm"},
	}
	for _, mult := range []float64{2, 4, 8, 16} {
		wl := workload.A3()
		db := wl.Build(cfg.Scale * mult)
		sub := cfg
		sub.Verify = cfg.Verify && mult <= 4
		results, err := sub.runStrategies(ctx, wl, db, scalingStrategies())
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			m := r.Metrics
			t.AddRow(paperSizeLabel(mult), string(r.Strategy),
				fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmtGB(m.InputMB), fmtGB(m.CommMB))
		}
	}
	t.AddNote("PAR's ungrouped map demand grows fastest; once it exceeds the slot pool its net time jumps (paper obs. 2)")
	return t, nil
}

// Figure7b reproduces Figure 7b: A3 at 800M paper tuples with cluster
// sizes 5, 10 and 20 nodes.
func Figure7b(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Figure 7b: A3, varying cluster size (800M tuples)",
		Header: []string{"nodes", "strategy", "net", "total"},
	}
	wl := workload.A3()
	db := wl.Build(cfg.Scale * 8)
	for _, nodes := range []int{5, 10, 20} {
		sub := cfg
		sub.Cluster.Nodes = nodes
		sub.Verify = false
		results, err := sub.runStrategies(ctx, wl, db, scalingStrategies())
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			t.AddRow(fmt.Sprint(nodes), string(r.Strategy),
				fmtSecs(r.Metrics.NetTime), fmtSecs(r.Metrics.TotalTime))
		}
	}
	t.AddNote("adding nodes helps the parallel strategies' net time; SEQ saturates (paper obs. 3)")
	return t, nil
}

// Figure7c reproduces Figure 7c: joint data and cluster scaling
// (200M/5, 400M/10, 800M/20).
func Figure7c(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Figure 7c: A3, joint data and cluster scaling",
		Header: []string{"size/nodes", "strategy", "net", "total"},
	}
	for _, p := range []struct {
		mult  float64
		nodes int
	}{{2, 5}, {4, 10}, {8, 20}} {
		wl := workload.A3()
		db := wl.Build(cfg.Scale * p.mult)
		sub := cfg
		sub.Cluster.Nodes = p.nodes
		sub.Verify = cfg.Verify && p.mult <= 4
		results, err := sub.runStrategies(ctx, wl, db, scalingStrategies())
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			t.AddRow(fmt.Sprintf("%s/%d", paperSizeLabel(p.mult), p.nodes), string(r.Strategy),
				fmtSecs(r.Metrics.NetTime), fmtSecs(r.Metrics.TotalTime))
		}
	}
	t.AddNote("net times stay roughly flat under joint scaling while total time grows (paper obs. 4)")
	return t, nil
}

// Figure8 reproduces Figure 8: A3-like queries with 2–16 conditional
// atoms.
func Figure8(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Figure 8: varying the number of conditional atoms (A3-like)",
		Header: []string{"atoms", "strategy", "net", "total", "comm"},
	}
	for _, k := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
		wl := workload.A3K(k)
		db := wl.Build(cfg.Scale)
		results, err := cfg.runStrategies(ctx, wl, db, scalingStrategies())
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			t.AddRow(fmt.Sprint(k), string(r.Strategy),
				fmtSecs(r.Metrics.NetTime), fmtSecs(r.Metrics.TotalTime), fmtGB(r.Metrics.CommMB))
		}
	}
	t.AddNote("SEQ's net time grows with query width; the parallel strategies stay nearly flat; PAR's total grows fastest (no packing)")
	return t, nil
}

// Table3 reproduces Table 3: the increase in net and total time when
// the selectivity rate moves from 0.1 to 0.9 on A1–A3 for SEQ, PAR and
// GREEDY.
func Table3(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Table 3: net/total increase from selectivity 0.1 to 0.9",
		Header: []string{"strategy", "net A1", "net A2", "net A3", "tot A1", "tot A2", "tot A3"},
	}
	strategies := scalingStrategies()[:3] // SEQ, PAR, GREEDY
	type key struct {
		wl    string
		strat string
	}
	lo := make(map[key]runResult)
	hi := make(map[key]runResult)
	for _, sel := range []float64{0.1, 0.9} {
		for _, base := range workload.AQueries()[:3] {
			wl := base.WithSelectivity(sel)
			db := wl.Build(cfg.Scale)
			results, err := cfg.runStrategies(ctx, wl, db, strategies)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				k := key{base.Name, string(r.Strategy)}
				if sel == 0.1 {
					lo[k] = r
				} else {
					hi[k] = r
				}
			}
		}
	}
	inc := func(wl, strat string, total bool) string {
		l, h := lo[key{wl, strat}].Metrics, hi[key{wl, strat}].Metrics
		a, b := l.NetTime, h.NetTime
		if total {
			a, b = l.TotalTime, h.TotalTime
		}
		if a == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.0f%%", 100*(b-a)/a)
	}
	for _, strat := range strategies {
		s := string(strat)
		t.AddRow(s,
			inc("A1", s, false), inc("A2", s, false), inc("A3", s, false),
			inc("A1", s, true), inc("A2", s, true), inc("A3", s, true))
	}
	t.AddNote("paper: selectivity moves the net time of PAR/GREEDY most and the total time of SEQ most; GREEDY's A3 stays low (packing)")
	return t, nil
}
