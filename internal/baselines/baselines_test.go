// Package baselines_test is external so that it may run plans through
// internal/exec, which imports baselines for the strategy table.
package baselines_test

import (
	"context"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
)

func tup(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func smallDB() *relation.Database {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{
		tup(1, 10), tup(2, 20), tup(3, 10), tup(4, 30), tup(5, 40),
	}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(1), tup(3), tup(5)}))
	db.Put(relation.FromTuples("T", 1, []relation.Tuple{tup(10), tup(30)}))
	db.Put(relation.FromTuples("U", 1, []relation.Tuple{tup(2), tup(3)}))
	return db
}

type builder func(string, []*sgf.BSGF) (*core.Plan, error)

func allBaselines() map[string]builder {
	return map[string]builder{
		"HPAR":  baselines.HParPlan,
		"HPARS": baselines.HParSPlan,
		"PPAR":  baselines.PParPlan,
	}
}

func checkBaselines(t *testing.T, src string, db *relation.Database) {
	t.Helper()
	prog := sgf.MustParse(src)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	runner := exec.NewRunner(mr.Config{Cost: cost.Default()}, cluster.DefaultConfig())
	for name, build := range allBaselines() {
		plan, err := build(name, prog.Queries)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := runner.Run(context.Background(), plan, db, mr.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range prog.Queries {
			got := res.Outputs.Relation(q.Name)
			if got == nil || !got.Equal(want.Relation(q.Name)) {
				t.Errorf("%s/%s mismatch:\ngot:\n%s\nwant:\n%s",
					name, q.Name, got.Dump(), want.Relation(q.Name).Dump())
			}
		}
	}
}

func TestBaselinesSimple(t *testing.T) {
	checkBaselines(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`, smallDB())
}

func TestBaselinesNegationAndDisjunction(t *testing.T) {
	checkBaselines(t, `Z := SELECT x, y FROM R(x, y) WHERE NOT S(x);`, smallDB())
	checkBaselines(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) OR NOT T(y);`, smallDB())
	checkBaselines(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND (T(y) OR NOT U(x));`, smallDB())
}

func TestBaselinesSharedKey(t *testing.T) {
	checkBaselines(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND U(x);`, smallDB())
}

func TestBaselinesMultiQuery(t *testing.T) {
	db := smallDB()
	db.Put(relation.FromTuples("G", 2, []relation.Tuple{tup(1, 10), tup(9, 20)}))
	checkBaselines(t, `
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);
		Z2 := SELECT x, y FROM G(x, y) WHERE S(x);`, db)
}

func TestBaselinesNoWhere(t *testing.T) {
	checkBaselines(t, `Z := SELECT x FROM R(x, y);`, smallDB())
}

func TestHParMergesSameKeyJoins(t *testing.T) {
	// A3 shape: all atoms on one key -> one join stage + filter = 2 jobs
	// (the paper's observed Hive behaviour for A3).
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND U(x);`)
	plan, err := baselines.HParPlan("hpar", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 2 || plan.Rounds() != 2 {
		t.Errorf("A3-shaped HPAR: %d jobs, %d rounds; want 2, 2", len(plan.Jobs), plan.Rounds())
	}
	// A1 shape: distinct keys -> one stage per atom, sequential.
	prog2 := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	plan2, err := baselines.HParPlan("hpar", prog2.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Jobs) != 3 || plan2.Rounds() != 3 {
		t.Errorf("A1-shaped HPAR: %d jobs, %d rounds; want 3, 3", len(plan2.Jobs), plan2.Rounds())
	}
}

func TestBaselinesCostlierThanGumbo(t *testing.T) {
	// At realistic sizes the baselines must show the paper's relative
	// behaviour vs Gumbo's PAR: more communication (full tuples, no
	// packing, inflation) and, for HPAR, more rounds.
	db := relation.NewDatabase()
	guard := data.GuardSpec{Name: "R", Arity: 4, Tuples: 20000, Seed: 1}.Generate()
	db.Put(guard)
	for i, n := range []string{"S", "T", "U", "V"} {
		db.Put(data.CondSpec{Name: n, Arity: 1, Tuples: 20000, Guard: guard, Col: i, MatchFrac: 0.5, Seed: int64(i + 2)}.Generate())
	}
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w)
		WHERE S(x) AND T(y) AND U(z) AND V(w);`)
	runner := exec.NewRunner(mr.Config{Cost: cost.Default().Scaled(0.001)}, cluster.DefaultConfig())
	parPlan, err := core.ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := runner.Run(context.Background(), parPlan, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if !parRes.Outputs.Relation("Z").Equal(want) {
		t.Fatal("PAR output wrong")
	}
	for name, build := range allBaselines() {
		plan, err := build(name, prog.Queries)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), plan, db, mr.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outputs.Relation("Z").Equal(want) {
			t.Fatalf("%s output wrong", name)
		}
		if res.Metrics.CommMB <= parRes.Metrics.CommMB {
			t.Errorf("%s comm %.2fMB should exceed PAR %.2fMB",
				name, res.Metrics.CommMB, parRes.Metrics.CommMB)
		}
		if res.Metrics.NetTime <= parRes.Metrics.NetTime {
			t.Errorf("%s net %.1fs should exceed PAR %.1fs",
				name, res.Metrics.NetTime, parRes.Metrics.NetTime)
		}
	}
	hpar, _ := baselines.HParPlan("hpar", prog.Queries)
	if hpar.Rounds() <= parPlan.Rounds() {
		t.Errorf("HPAR rounds %d should exceed PAR rounds %d", hpar.Rounds(), parPlan.Rounds())
	}
}
