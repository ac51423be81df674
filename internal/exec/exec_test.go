package exec

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
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
