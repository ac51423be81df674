package experiments

import (
	"context"
	"fmt"
	"io"
	"time"
)

// Experiment couples an id with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func(context.Context, Config) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 3 (BSGF strategies)", Figure3},
		{"E2", "Figure 4 (large BSGF queries)", Figure4},
		{"E3", "Figure 5 (SGF strategies)", Figure5},
		{"E4", "Figure 7a (data size)", Figure7a},
		{"E5", "Figure 7b (cluster size)", Figure7b},
		{"E6", "Figure 7c (joint scaling)", Figure7c},
		{"E7", "Figure 8 (query size)", Figure8},
		{"E8", "Table 3 (selectivity)", Table3},
		{"E9", "§5.2 cost model comparison", CostModelExperiment},
		{"E9b", "§5.2 ranking accuracy", func(ctx context.Context, c Config) (*Table, error) { return RankingAccuracy(ctx, c, 0) }},
		{"E10", "greedy vs optimal", OptimalVsGreedy},
		{"E11", "ablations (packing, tuple-ids, reducer allocation, skew, dynamic)", Ablations},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// RunAll executes every experiment and renders the tables to w.
func RunAll(ctx context.Context, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Gumbo-Go experiment suite — scale %g, cluster %d×%d slots\n\n",
		cfg.Scale, cfg.Cluster.Nodes, cfg.Cluster.SlotsPerNode)
	for _, e := range All() {
		start := time.Now()
		table, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		table.AddNote("experiment wall time: %.1fs", time.Since(start).Seconds())
		table.Render(w)
	}
	return nil
}
