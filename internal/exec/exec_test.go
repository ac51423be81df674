package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

func testSetup(t *testing.T) (*Runner, *relation.Database, *sgf.Program) {
	t.Helper()
	db := relation.NewDatabase()
	guard := data.GuardSpec{Name: "R", Arity: 4, Tuples: 2000, Seed: 1}.Generate()
	db.Put(guard)
	for i, name := range []string{"S", "T"} {
		db.Put(data.CondSpec{
			Name: name, Arity: 1, Tuples: 2000,
			Guard: guard, Col: i, MatchFrac: 0.5, Seed: int64(i + 2),
		}.Generate())
	}
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y, z, w) WHERE S(x) AND T(y);`)
	runner := NewRunner(mr.Config{Cost: cost.Default().Scaled(0.001)}, cluster.DefaultConfig())
	return runner, db, prog
}

func TestRunProducesCorrectOutputAndMetrics(t *testing.T) {
	runner, db, prog := testSetup(t)
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), plan, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs.Relation("Z").Equal(want) {
		t.Errorf("output mismatch:\n%s\nvs\n%s", res.Outputs.Relation("Z").Dump(), want.Dump())
	}
	m := res.Metrics
	if m.NetTime <= 0 || m.TotalTime <= 0 || m.InputMB <= 0 || m.CommMB <= 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.TotalTime < m.NetTime {
		t.Errorf("total %v < net %v", m.TotalTime, m.NetTime)
	}
	if m.Jobs != 3 || m.Rounds != 2 {
		t.Errorf("jobs=%d rounds=%d", m.Jobs, m.Rounds)
	}
}

func TestSeqVsParShape(t *testing.T) {
	// The paper's core observation: PAR lowers net time but raises
	// total time relative to SEQ (for chains long enough to matter).
	runner, db, _ := testSetup(t)
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND S(z) AND T(w);`)
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	seqPlan, err := core.SeqPlan("seq", prog.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	parPlan, err := core.ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := runner.Run(context.Background(), seqPlan, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := runner.Run(context.Background(), parPlan, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !seqRes.Outputs.Relation("Z").Equal(want) || !parRes.Outputs.Relation("Z").Equal(want) {
		t.Fatal("outputs wrong")
	}
	if parRes.Metrics.NetTime >= seqRes.Metrics.NetTime {
		t.Errorf("PAR net %v should beat SEQ net %v",
			parRes.Metrics.NetTime, seqRes.Metrics.NetTime)
	}
	if parRes.Metrics.Rounds >= seqRes.Metrics.Rounds {
		t.Errorf("PAR rounds %d vs SEQ rounds %d", parRes.Metrics.Rounds, seqRes.Metrics.Rounds)
	}
}

func TestModelledPlanCost(t *testing.T) {
	runner, db, prog := testSetup(t)
	plan, err := core.ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), plan, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The measured job specs of an executed plan price under both cost
	// models (what the §5.2 cost-model comparison ranks jobs by).
	costCfg := runner.Engine.Config().Cost
	for _, model := range []cost.Model{cost.Gumbo, cost.Wang} {
		total := 0.0
		for _, st := range res.JobStats {
			total += costCfg.JobCost(model, st.CostSpec())
		}
		if total <= 0 {
			t.Errorf("plan cost under %v = %v", model, total)
		}
	}
}

func TestRunErrorOnBrokenPlan(t *testing.T) {
	runner, db, prog := testSetup(t)
	plan, err := core.ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	plan.Jobs[0].Inputs = append(plan.Jobs[0].Inputs, "NoSuchRelation")
	if _, err := runner.Run(context.Background(), plan, db, mr.RunOptions{}); err == nil {
		t.Error("broken plan accepted")
	}
}

// runPaperPlans runs the GREEDY and PAR partitions of the paper's A and B
// queries and the GREEDY-SGF and PARUNIT plans of its C queries over
// their databases built at scale, under the cost configuration at the
// same scale, and hands check each plan, its database and its result.
func runPaperPlans(t *testing.T, scale float64, check func(name string, plan *core.Plan, db *relation.Database, res *Result)) {
	runner := NewRunner(mr.Config{Cost: cost.Default().Scaled(scale)}, cluster.DefaultConfig())
	flat := append(append(workload.AQueries(), workload.BQueries()...), workload.A3K(8))
	for _, c := range []struct {
		wls        []workload.Workload
		strategies []core.Strategy
	}{
		{flat, []core.Strategy{core.StrategyGreedy, core.StrategyPAR}},
		{workload.CQueries(), []core.Strategy{core.StrategyGreedySGF, core.StrategyParUnit}},
	} {
		for _, wl := range c.wls {
			db := wl.Build(scale)
			for _, strat := range c.strategies {
				plan, err := BuildPlan(strat, wl.Name, runner.Engine.Config().Cost, wl.Program, db)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runner.Run(context.Background(), plan, db, mr.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s %s", wl.Name, strat), plan, db, res)
			}
		}
	}
}

// TestSampleTracksMeasuredInter holds the sampler to the engine: under
// the paper plans (runPaperPlans) at scale 1e-3 (1e-4 under -short),
// every MSJ job input's intermediate MB
// as mr.Sample extrapolates it — what PredictPlanBytes sums — is within
// a q-error of 1.02 of what the run measured (JobStats.Parts), packing
// included. A job reading a relation an earlier job produces is left
// out, as PredictPlanBytes leaves it out.
func TestSampleTracksMeasuredInter(t *testing.T) {
	scale := 1e-3
	if testing.Short() {
		scale = 1e-4
	}
	runPaperPlans(t, scale, func(name string, plan *core.Plan, db *relation.Database, res *Result) {
		for ji, job := range plan.Jobs {
			counts, err := mr.Sample(job, db)
			if err != nil || !strings.Contains(job.Name, "/msj") {
				continue
			}
			for k, cnt := range counts {
				measured := res.JobStats[ji].Parts[k].InterMB
				sampled := 0.0
				if cnt.Sampled > 0 {
					sampled = float64(cnt.Bytes) / mr.MB * float64(cnt.Tuples) / float64(cnt.Sampled)
				}
				if q := math.Max(sampled/measured, measured/sampled); measured+sampled > 0 && !(q <= 1.02) {
					t.Errorf("%s, job %s, input %s: sampled %.6f MB, measured %.6f MB (q %.3f)",
						name, job.Name, job.Inputs[k], sampled, measured, q)
				}
			}
		}
	})
}
