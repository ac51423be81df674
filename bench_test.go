// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one benchmark per artifact, plus micro-benchmarks of
// the parser, the planners, the reference evaluator and the end-to-end
// Greedy query. The experiment benchmarks run at a reduced scale
// controlled by the GUMBO_BENCH_SCALE environment variable (default
// 0.0002); per-iteration simulated results are identical, so b.N loops
// measure harness wall-clock cost while the reported custom metrics
// carry the paper-equivalent simulated times. The single-job engine
// benchmarks live in internal/core and internal/mr; the repeatable
// end-to-end benchmark is bench/.
package gumbo

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

func benchScale() float64 {
	if s := os.Getenv("GUMBO_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.0002
}

func benchConfig() experiments.Config {
	cfg := experiments.At(benchScale())
	cfg.Verify = false
	return cfg
}

// runExperiment runs one experiment per iteration and reports a couple
// of its headline numbers as custom benchmark metrics.
func runExperiment(b *testing.B, run func(context.Context, experiments.Config) (*experiments.Table, error), metric func(*experiments.Table) map[string]float64) {
	b.Helper()
	cfg := benchConfig()
	var tbl *experiments.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if metric != nil && tbl != nil {
		for name, v := range metric(tbl) {
			b.ReportMetric(v, name)
		}
	}
	tbl.Render(io.Discard)
}

// findCell returns the numeric value of column col in the first row
// whose leading cells match keys.
func findCell(tbl *experiments.Table, col int, keys ...string) float64 {
	for _, row := range tbl.Rows {
		ok := true
		for i, k := range keys {
			if row[i] != k {
				ok = false
				break
			}
		}
		if ok {
			s := row[col]
			for len(s) > 0 && (s[len(s)-1] < '0' || s[len(s)-1] > '9') {
				s = s[:len(s)-1]
			}
			v, err := strconv.ParseFloat(s, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// BenchmarkFigure3_BSGFStrategies regenerates Figure 3 (E1).
func BenchmarkFigure3_BSGFStrategies(b *testing.B) {
	runExperiment(b, experiments.Figure3, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"A1-SEQ-net-s":    findCell(t, 2, "A1", "SEQ"),
			"A1-PAR-net-s":    findCell(t, 2, "A1", "PAR"),
			"A1-GREEDY-net-s": findCell(t, 2, "A1", "GREEDY"),
		}
	})
}

// BenchmarkFigure4_LargeQueries regenerates Figure 4 (E2).
func BenchmarkFigure4_LargeQueries(b *testing.B) {
	runExperiment(b, experiments.Figure4, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"B1-SEQ-net-s": findCell(t, 2, "B1", "SEQ"),
			"B1-PAR-net-s": findCell(t, 2, "B1", "PAR"),
			"B2-1RD-net-s": findCell(t, 2, "B2", "1-ROUND"),
		}
	})
}

// BenchmarkFigure5_SGFStrategies regenerates Figure 5 (E3).
func BenchmarkFigure5_SGFStrategies(b *testing.B) {
	runExperiment(b, experiments.Figure5, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"C1-PARUNIT-netpct":   findCell(t, 2, "C1", "PARUNIT"),
			"C1-GREEDYSGF-totpct": findCell(t, 3, "C1", "GREEDY-SGF"),
		}
	})
}

// BenchmarkFigure7a_DataSize regenerates Figure 7a (E4).
func BenchmarkFigure7a_DataSize(b *testing.B) {
	runExperiment(b, experiments.Figure7a, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"1600M-PAR-net-s":    findCell(t, 2, "1600M", "PAR"),
			"1600M-GREEDY-net-s": findCell(t, 2, "1600M", "GREEDY"),
		}
	})
}

// BenchmarkFigure7b_ClusterSize regenerates Figure 7b (E5).
func BenchmarkFigure7b_ClusterSize(b *testing.B) {
	runExperiment(b, experiments.Figure7b, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"5n-PAR-net-s":  findCell(t, 2, "5", "PAR"),
			"20n-PAR-net-s": findCell(t, 2, "20", "PAR"),
		}
	})
}

// BenchmarkFigure7c_DataAndCluster regenerates Figure 7c (E6).
func BenchmarkFigure7c_DataAndCluster(b *testing.B) {
	runExperiment(b, experiments.Figure7c, nil)
}

// BenchmarkFigure8_QuerySize regenerates Figure 8 (E7).
func BenchmarkFigure8_QuerySize(b *testing.B) {
	runExperiment(b, experiments.Figure8, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"16at-SEQ-net-s": findCell(t, 2, "16", "SEQ"),
			"16at-1RD-net-s": findCell(t, 2, "16", "1-ROUND"),
		}
	})
}

// BenchmarkTable3_Selectivity regenerates Table 3 (E8).
func BenchmarkTable3_Selectivity(b *testing.B) {
	runExperiment(b, experiments.Table3, nil)
}

// BenchmarkCostModel_GumboVsWang regenerates the §5.2 cost-model
// comparison (E9).
func BenchmarkCostModel_GumboVsWang(b *testing.B) {
	runExperiment(b, experiments.CostModelExperiment, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"gumbo-plan-net-s": findCell(t, 2, "gumbo"),
			"wang-plan-net-s":  findCell(t, 2, "wang"),
		}
	})
}

// BenchmarkRankingAccuracy regenerates the §5.2 ranking accuracy
// comparison (E9b).
func BenchmarkRankingAccuracy(b *testing.B) {
	runExperiment(b, func(ctx context.Context, c experiments.Config) (*experiments.Table, error) {
		return experiments.RankingAccuracy(ctx, c, 12)
	}, func(t *experiments.Table) map[string]float64 {
		return map[string]float64{
			"gumbo-acc-pct": findCell(t, 2, "cost_gumbo"),
			"wang-acc-pct":  findCell(t, 2, "cost_wang"),
		}
	})
}

// BenchmarkOptimal_VsGreedy regenerates the greedy-vs-optimal check
// (E10).
func BenchmarkOptimal_VsGreedy(b *testing.B) {
	runExperiment(b, experiments.OptimalVsGreedy, nil)
}

// ---- Micro-benchmarks ----

// BenchmarkGreedyBSGFQuery drives the full public pipeline — parse,
// Greedy-BSGF planning (with sampling), MSJ+EVAL execution, output
// merge — on the A1 workload (4 semi-joins over one guard, ~50k guard
// tuples at this scale): the end-to-end number the engine hot-path
// micro-benchmarks roll up into.
func BenchmarkGreedyBSGFQuery(b *testing.B) {
	wl := workload.A1()
	db := wl.Build(0.0005)
	q := MustParse(wl.Program.String())
	s := New(WithScale(0.0005))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(q, db, Greedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParser measures SGF parsing+validation throughput.
func BenchmarkParser(b *testing.B) {
	src := workload.C3().Program.String()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := sgf.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyBSGF measures the planner on B1's 16 equations.
func BenchmarkGreedyBSGF(b *testing.B) {
	wl := workload.B1()
	db := wl.Build(0.0002)
	eqs := core.ExtractEquations(wl.Program.Queries)
	for i := 0; i < b.N; i++ {
		est := core.NewEstimator(cost.Default().Scaled(0.0002), cost.Gumbo, db, wl.Program)
		est.GreedyBSGF(eqs)
	}
}

// BenchmarkGreedySGF measures the multiway-sort heuristic on C3.
func BenchmarkGreedySGF(b *testing.B) {
	prog := workload.C3().Program
	for i := 0; i < b.N; i++ {
		core.GreedySGF(prog)
	}
}

// BenchmarkConformance measures the compiled conformance matcher.
func BenchmarkConformance(b *testing.B) {
	atom := sgf.NewAtom("R", sgf.V("x"), sgf.CInt(4), sgf.V("x"), sgf.V("y"))
	m := sgf.NewMatcher(atom)
	t := relation.Tuple{relation.Value(1), relation.Value(4), relation.Value(1), relation.Value(3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.Matches(t) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkReferenceEvaluator measures direct evaluation of A1.
func BenchmarkReferenceEvaluator(b *testing.B) {
	wl := workload.A1()
	db := wl.Build(0.0005)
	q := MustParse(wl.Program.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}
