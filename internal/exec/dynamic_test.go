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

func dynamicSetup(t *testing.T) (*Runner, *relation.Database, *sgf.Program) {
	t.Helper()
	db := relation.NewDatabase()
	for _, g := range []string{"R", "G", "H"} {
		db.Put(data.GuardSpec{Name: g, Arity: 4, Tuples: 3000, Seed: int64(len(g))}.Generate())
	}
	guard := db.Relation("R")
	for i, c := range []string{"S", "T", "U"} {
		db.Put(data.CondSpec{Name: c, Arity: 1, Tuples: 1500, Guard: guard, Col: i, MatchFrac: 0.5, Seed: int64(i + 9)}.Generate())
	}
	prog := sgf.MustParse(`
		Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);
		Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);
		Z3 := SELECT x FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);
		Z4 := SELECT x FROM H(x, y, z, w) WHERE Z2(x) AND U(y);`)
	return NewRunner(mr.Config{Cost: cost.Default().Scaled(0.001)}, cluster.DefaultConfig()), db, prog
}

func TestRunDynamicSGFCorrect(t *testing.T) {
	runner, db, prog := dynamicSetup(t)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunDynamicSGF(context.Background(), prog, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range prog.Queries {
		got := res.Outputs.Relation(q.Name)
		if got == nil || !got.Equal(want.Relation(q.Name)) {
			t.Errorf("dynamic output %s wrong", q.Name)
		}
	}
	if res.Metrics.NetTime <= 0 || res.Metrics.TotalTime < res.Metrics.NetTime {
		t.Errorf("metrics wrong: %+v", res.Metrics)
	}
	if res.Plan.Strategy != StrategyDynamic {
		t.Errorf("strategy = %v", res.Plan.Strategy)
	}
}

func TestRunDynamicUsesMaterializedSizes(t *testing.T) {
	// After round one, Z1 exists in the working database, so the
	// estimator sees its true (small) size rather than the guard-size
	// upper bound. The run must complete and produce multiple rounds.
	runner, db, prog := dynamicSetup(t)
	res, err := runner.RunDynamicSGF(context.Background(), prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3 (two planning rounds + EVALs)", res.Metrics.Rounds)
	}
	if len(res.JobStats) < 4 {
		t.Errorf("jobs = %d", len(res.JobStats))
	}
}

func TestRunDynamicVsStaticComparable(t *testing.T) {
	// The dynamic strategy should never be wildly worse than static
	// Greedy-SGF (same building blocks, better information).
	runner, db, prog := dynamicSetup(t)
	dyn, err := runner.RunDynamicSGF(context.Background(), prog, db)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(runner.Engine.Config().Cost, cost.Gumbo, db, prog)
	static, err := est.GreedySGFPlan("static", prog)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := runner.Run(context.Background(), static, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Metrics.TotalTime > 1.5*sres.Metrics.TotalTime {
		t.Errorf("dynamic total %.0f far above static %.0f",
			dyn.Metrics.TotalTime, sres.Metrics.TotalTime)
	}
}

func TestRunDynamicRejectsInvalidProgram(t *testing.T) {
	runner, db, _ := dynamicSetup(t)
	bad := &sgf.Program{Queries: []*sgf.BSGF{{
		Name:   "Z",
		Select: []string{"q"},
		Guard:  sgf.NewAtom("R", sgf.V("x")),
	}}}
	if _, err := runner.RunDynamicSGF(context.Background(), bad, db); err == nil {
		t.Error("invalid program accepted")
	}
}
