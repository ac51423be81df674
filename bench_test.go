// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one benchmark per artifact (see DESIGN.md §3), plus
// micro-benchmarks of the core operators. The experiment benchmarks run
// at a reduced scale controlled by the GUMBO_BENCH_SCALE environment
// variable (default 0.0002); per-iteration simulated results are
// identical, so b.N loops measure harness wall-clock cost while the
// reported custom metrics carry the paper-equivalent simulated times.
package gumbo

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/mr"
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

// ---- Micro-benchmarks of the core machinery ----

func benchDB(tuples int) *relation.Database {
	wl := workload.A1()
	return wl.Build(float64(tuples) / float64(workload.PaperGuardTuples))
}

// BenchmarkMSJJob measures the multi-semi-join job on A1 (4 semi-joins,
// one guard, 50k-tuple relations).
func BenchmarkMSJJob(b *testing.B) {
	db := benchDB(50000)
	wl := workload.A1()
	eqs := core.ExtractEquations(wl.Program.Queries)
	job, err := core.NewMSJJob("bench", eqs)
	if err != nil {
		b.Fatal(err)
	}
	engine := mr.NewEngine(mr.Config{Cost: cost.Default().Scaled(0.0005)})
	b.ReportAllocs() // tracks mapper-side key building + engine record flow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.RunJob(context.Background(), job, db); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(5 * 50000 * 10)
}

// BenchmarkOneRoundJob measures the fused MSJ+EVAL job on A3.
func BenchmarkOneRoundJob(b *testing.B) {
	wl := workload.A3()
	db := wl.Build(0.0005)
	job, err := core.NewOneRoundJob("bench", wl.Program.Queries)
	if err != nil {
		b.Fatal(err)
	}
	engine := mr.NewEngine(mr.Config{Cost: cost.Default().Scaled(0.0005)})
	b.ReportAllocs() // tracks mapper-side key building + engine record flow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.RunJob(context.Background(), job, db); err != nil {
			b.Fatal(err)
		}
	}
}

// schedulerWorkload builds k independent subqueries over disjoint
// relations: Greedy-SGF compiles them into a multi-job plan whose MR
// dependency graph is k parallel two-job chains, a shape with ample
// independent work for the task pool.
func schedulerWorkload(k int, guardTuples int64) (*Query, *Database) {
	var src strings.Builder
	db := NewDatabase()
	for i := 0; i < k; i++ {
		fmt.Fprintf(&src, "Z%d := SELECT x, y FROM R%d(x, y) WHERE S%d(x) AND T%d(y);\n", i, i, i, i)
		g := NewRelation(fmt.Sprintf("R%d", i), 2)
		s := NewRelation(fmt.Sprintf("S%d", i), 1)
		u := NewRelation(fmt.Sprintf("T%d", i), 1)
		for j := int64(0); j < guardTuples; j++ {
			g.Add(Tuple{Int(j), Int(j % 997)})
		}
		for j := int64(0); j < guardTuples/2; j++ {
			s.Add(Tuple{Int(j * 2)})
		}
		for j := int64(0); j < 499; j++ {
			u.Add(Tuple{Int(j)})
		}
		db.Put(g)
		db.Put(s)
		db.Put(u)
	}
	return MustParse(src.String()), db
}

// benchProgramPool runs a Greedy-SGF plan of independent subqueries at
// the given unified-pool width. Compare the two widths for the task
// scheduler's wall-clock scaling; simulated metrics are identical in
// both.
func benchProgramPool(b *testing.B, workers int) {
	q, db := schedulerWorkload(6, 20000)
	s := New(WithScale(0.001), WithHostWorkers(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(q, db, GreedySGF); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramPoolSequential runs every task on one worker.
func BenchmarkProgramPoolSequential(b *testing.B) { benchProgramPool(b, 1) }

// BenchmarkProgramPoolParallel runs the same plan on a GOMAXPROCS-wide
// pool.
func BenchmarkProgramPoolParallel(b *testing.B) { benchProgramPool(b, 0) }

// pipelineWorkload builds a deep nested SGF program — a `levels`-long
// chain where each subquery's guard is the previous subquery's output
// and each level filters by its own large base conditional relation:
//
//	Z1 := SELECT x, y FROM R(x, y) WHERE S1(x);
//	Zk := SELECT x, y FROM Z(k-1)(x, y) WHERE Sk(x);
//
// Under GreedySGF this compiles to a 2·levels-job MR program whose
// dependency graph is one long chain (MSJ_k → EVAL_k → MSJ_k+1 → ...),
// the worst case for whole-job barriers: the only work a barriered
// scheduler can ever overlap is within one job, while the base
// conditionals S1..Sk — the bulk of the map input — are all readable
// from the start.
func pipelineWorkload(levels int, guardTuples int64) (*Query, *Database) {
	var src strings.Builder
	db := NewDatabase()
	g := NewRelation("R", 2)
	for j := int64(0); j < guardTuples; j++ {
		g.Add(Tuple{Int(j), Int(j % 997)})
	}
	db.Put(g)
	prev := "R"
	for k := 1; k <= levels; k++ {
		fmt.Fprintf(&src, "Z%d := SELECT x, y FROM %s(x, y) WHERE S%d(x);\n", k, prev, k)
		s := NewRelation(fmt.Sprintf("S%d", k), 1)
		// ~97% of guard ids survive each level: every level keeps
		// substantial map/shuffle work while the chain output shrinks.
		for j := int64(0); j < guardTuples; j++ {
			if j%32 != int64(k%32) {
				s.Add(Tuple{Int(j)})
			}
		}
		db.Put(s)
		prev = fmt.Sprintf("Z%d", k)
	}
	return MustParse(src.String()), db
}

// BenchmarkProgramPipelined measures wall-clock time of a deep-DAG
// nested program end to end (GreedySGF planning + execution) at full
// host parallelism. This is the benchmark behind the partition-level
// pipelined scheduler: a dependent job's map tasks over base relations
// start while upstream jobs are still reducing, so the chain's job
// barriers stop costing idle workers.
func BenchmarkProgramPipelined(b *testing.B) {
	q, db := pipelineWorkload(8, 30000)
	s := New(WithScale(0.001))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(q, db, GreedySGF); err != nil {
			b.Fatal(err)
		}
	}
}

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

// skewedWorkload builds the adaptive-skew benchmark input: a semi-join
// whose guard's join column follows a harmonic (zipf-like) frequency
// law over `keys` distinct values — value k carries ~1/k of the hot
// mass. The handful of heavy values land in whichever reduce
// partitions their hashes pick, making those partitions cross the
// split threshold while still holding many separable key groups (the
// shape runtime splitting exists for: a single dominant key is one
// atomic group and can only be isolated, not divided).
func skewedWorkload(tuples, keys int64) (*Query, *Database) {
	q := MustParse("Z := SELECT x, y FROM R(x, y) WHERE S(x);")
	db := NewDatabase()
	g := NewRelation("R", 2)
	j := int64(0)
	for j < tuples {
		for k := int64(1); k <= keys && j < tuples; k++ {
			n := tuples / (k * 6)
			if n == 0 {
				n = 1
			}
			for i := int64(0); i < n && j < tuples; i++ {
				g.Add(Tuple{Int(k), Int(j)})
				j++
			}
		}
	}
	s := NewRelation("S", 1)
	for k := int64(0); k <= keys; k++ {
		s.Add(Tuple{Int(k)})
	}
	db.Put(g)
	db.Put(s)
	return q, db
}

// benchSkewedQuery runs the skewed semi-join end to end on a 4-wide
// pool with runtime skew splitting at the given threshold ratio
// (negative = off). One untimed warm-up run asserts the configuration
// actually does what the sub-benchmark name claims — the on-run must
// split the hot partition, the off-run must not split anything — and
// feeds the balance metrics: max-task-mb is the heaviest single reduce
// task the pool had to schedule (with splitting off this equals the
// heaviest partition), split-tasks the number of sub-range reduce
// tasks.
func benchSkewedQuery(b *testing.B, ratio float64) {
	q, db := skewedWorkload(120000, 32)
	s := New(WithScale(0.001), WithHostWorkers(4), WithSkewSplit(ratio))
	res, err := s.Run(q, db, Greedy)
	if err != nil {
		b.Fatal(err)
	}
	split := 0
	var maxTask float64
	for i := range res.JobStats {
		split += res.JobStats[i].SplitReduceTasks
		if m := res.JobStats[i].MaxReduceTaskMB; m > maxTask {
			maxTask = m
		}
	}
	if ratio > 0 && split == 0 {
		b.Fatal("splitting on but no reduce partition split")
	}
	if ratio <= 0 && split != 0 {
		b.Fatalf("splitting off but %d split tasks reported", split)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(q, db, Greedy); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(maxTask, "max-task-mb")
	b.ReportMetric(float64(split), "split-tasks")
}

// BenchmarkSkewedQuery measures what the runtime reduce-partition
// splitter buys on a hot-key workload: with splitting off the dominant
// key's partition reduces as one serial task the rest of the job waits
// behind; with it on, the partition splits at sketch-derived key
// boundaries into independently scheduled sub-tasks and the heaviest
// schedulable unit (the max-task-mb metric) shrinks by the skew
// factor. The ns/op comparison doubles as the overhead gate: on a
// single-CPU host the scheduling win cannot show up in wall-clock, so
// off vs on must be parity — the sampled sketch feed and split
// bookkeeping are free — while multi-core hosts convert the balance
// into wall-clock directly.
func BenchmarkSkewedQuery(b *testing.B) {
	b.Run("split=off", func(b *testing.B) { benchSkewedQuery(b, -1) })
	b.Run("split=on", func(b *testing.B) { benchSkewedQuery(b, 1.5) })
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
