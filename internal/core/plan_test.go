package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/data"
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

// runPlan executes a plan and returns the final output relation.
func runPlan(t *testing.T, plan *Plan, db *relation.Database) *relation.Relation {
	t.Helper()
	engine := newTestEngine(cost.Default())
	outs, stats, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
	if err != nil {
		t.Fatalf("plan %s: %v", plan.Name, err)
	}
	if len(stats) != len(plan.Jobs) {
		t.Fatalf("plan %s: stats mismatch", plan.Name)
	}
	out := outs.Relation(plan.Outputs[len(plan.Outputs)-1])
	if out == nil {
		t.Fatalf("plan %s: output relation missing", plan.Name)
	}
	return out
}

// wantSame asserts a plan output matches the reference evaluation.
func wantSame(t *testing.T, name string, got, want *relation.Relation) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s: output mismatch\ngot:\n%s\nwant:\n%s", name, got.Dump(), want.Dump())
	}
}

// allStrategyPlans builds every applicable strategy plan for one query.
func allStrategyPlans(t *testing.T, q *sgf.BSGF, db *relation.Database, prog *sgf.Program) []*Plan {
	t.Helper()
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	var plans []*Plan
	queries := []*sgf.BSGF{q}
	if p, err := ParPlan("par", queries); err == nil {
		plans = append(plans, p)
	} else {
		t.Fatalf("ParPlan: %v", err)
	}
	if p, err := est.GreedyPlan("greedy", queries); err != nil {
		t.Fatalf("GreedyPlan: %v", err)
	} else {
		plans = append(plans, p)
	}
	eqs := ExtractEquations(queries)
	if len(eqs) <= 6 {
		if p, err := est.OptPlan("opt", queries); err != nil {
			t.Fatalf("OptPlan: %v", err)
		} else {
			plans = append(plans, p)
		}
	}
	if p, err := BasicPlan("onejob", StrategyGreedy, queries, eqs, OneGroup(len(eqs)), nil); err == nil {
		plans = append(plans, p)
	}
	if p, err := SeqPlan("seq", q); err == nil {
		plans = append(plans, p)
	}
	if OneRoundApplicable(q) != OneRoundInapplicable {
		if p, err := OneRoundPlan("oneround", queries); err != nil {
			t.Fatalf("OneRoundPlan: %v", err)
		} else {
			plans = append(plans, p)
		}
	}
	return plans
}

func checkAllStrategies(t *testing.T, src string, db *relation.Database) {
	t.Helper()
	prog := sgf.MustParse(src)
	q := prog.Queries[len(prog.Queries)-1]
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Queries) != 1 {
		t.Fatal("checkAllStrategies expects a single-query program")
	}
	for _, plan := range allStrategyPlans(t, q, db, prog) {
		got := runPlan(t, plan, db)
		wantSame(t, fmt.Sprintf("%s[%s]", q.Name, plan.Strategy), got, want)
	}
}

func paperDB() *relation.Database {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{
		tup(1, 10), tup(2, 20), tup(3, 10), tup(4, 30), tup(5, 40),
	}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(1), tup(3), tup(5)}))
	db.Put(relation.FromTuples("T", 1, []relation.Tuple{tup(10), tup(30)}))
	db.Put(relation.FromTuples("U", 1, []relation.Tuple{tup(2), tup(3)}))
	return db
}

func TestStrategiesSimpleSemiJoin(t *testing.T) {
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x);`, paperDB())
}

func TestStrategiesConjunction(t *testing.T) {
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`, paperDB())
}

func TestStrategiesNegation(t *testing.T) {
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE NOT S(x);`, paperDB())
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND NOT U(x);`, paperDB())
}

func TestStrategiesDisjunction(t *testing.T) {
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) OR T(y);`, paperDB())
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) OR NOT T(y);`, paperDB())
}

func TestStrategiesMixedBoolean(t *testing.T) {
	// The running example of §1 / Example 4 shape.
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND (T(y) OR NOT U(x));`, paperDB())
}

func TestStrategiesSharedKey(t *testing.T) {
	// A3 shape: all atoms on the same key; 1-round shared applies.
	q := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(x) AND U(x);`)
	if OneRoundApplicable(q.Queries[0]) != OneRoundShared {
		t.Fatal("A3 shape should be shared-key 1-round applicable")
	}
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(x) AND U(x);`, paperDB())
}

func TestStrategiesUniquenessB2Shape(t *testing.T) {
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE
		(S(x) AND NOT T(x) AND NOT U(x)) OR
		(NOT S(x) AND T(x) AND NOT U(x)) OR
		(NOT S(x) AND NOT T(x) AND U(x));`, paperDB())
}

func TestStrategiesGuardConstants(t *testing.T) {
	db := paperDB()
	db.Put(relation.FromTuples("G", 3, []relation.Tuple{
		tup(1, 10, 4), tup(2, 20, 4), tup(3, 30, 7),
	}))
	checkAllStrategies(t, `Z := SELECT x FROM G(x, y, 4) WHERE S(x);`, db)
}

func TestStrategiesCondConstants(t *testing.T) {
	db := paperDB()
	db.Put(relation.FromTuples("P", 2, []relation.Tuple{
		tup(1, 1), tup(2, 10), tup(7, 3),
	}))
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE P(x, 1) OR P(7, x);`, db)
}

func TestStrategiesRepeatedGuardVar(t *testing.T) {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{tup(1, 1), tup(1, 2), tup(3, 3)}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(1)}))
	checkAllStrategies(t, `Z := SELECT x FROM R(x, x) WHERE S(x);`, db)
	checkAllStrategies(t, `Z := SELECT x FROM R(x, x) WHERE NOT S(x);`, db)
}

func TestStrategiesEmptyJoinKey(t *testing.T) {
	// Conditional shares no variable with the guard.
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE S(q) AND T(y);`, paperDB())
}

func TestStrategiesProjectionSensitive(t *testing.T) {
	// Two guard facts with equal projections but different verdicts: the
	// tuple-id mode must keep them apart (a verdict belongs to the guard
	// fact, not to its projection).
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(1, 3)}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(2)}))
	checkAllStrategies(t, `Z := SELECT x FROM R(x, y) WHERE NOT S(y);`, db)
	checkAllStrategies(t, `Z := SELECT x FROM R(x, y) WHERE S(y);`, db)
}

func TestStrategiesGuardAlsoConditional(t *testing.T) {
	// A2 shape reuses one conditional relation; also use R on both sides.
	checkAllStrategies(t, `Z := SELECT x, y FROM R(x, y) WHERE R(y, z) AND S(x);`, paperDB())
}

func TestMultiQueryBasicPlan(t *testing.T) {
	// Two independent queries in one basic program (§4.5) sharing a
	// conditional relation.
	db := paperDB()
	db.Put(relation.FromTuples("G", 2, []relation.Tuple{tup(1, 10), tup(9, 20)}))
	prog := sgf.MustParse(`
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);
		Z2 := SELECT x, y FROM G(x, y) WHERE S(x);`)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	for _, build := range []func() (*Plan, error){
		func() (*Plan, error) { return ParPlan("par", prog.Queries) },
		func() (*Plan, error) { return est.GreedyPlan("greedy", prog.Queries) },
		func() (*Plan, error) {
			eqs := ExtractEquations(prog.Queries)
			return BasicPlan("onejob", StrategyGreedy, prog.Queries, eqs, OneGroup(len(eqs)), nil)
		},
	} {
		plan, err := build()
		if err != nil {
			t.Fatal(err)
		}
		engine := newTestEngine(cost.Default())
		outs, _, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range []string{"Z1", "Z2"} {
			wantSame(t, plan.Name+"/"+z, outs.Relation(z), want.Relation(z))
		}
	}
}

func TestSGFProgramStrategies(t *testing.T) {
	// Nested program with dependencies (Example 5 shape, small data).
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R1", 2, []relation.Tuple{tup(1, 2), tup(3, 4), tup(5, 6)}))
	db.Put(relation.FromTuples("R2", 2, []relation.Tuple{tup(1, 1), tup(3, 3), tup(9, 9)}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(1), tup(3), tup(5)}))
	db.Put(relation.FromTuples("T", 1, []relation.Tuple{tup(1), tup(3)}))
	db.Put(relation.FromTuples("U", 1, []relation.Tuple{tup(3)}))
	prog := sgf.MustParse(`
		Q1 := SELECT x, y FROM R1(x, y) WHERE S(x);
		Q2 := SELECT x, y FROM Q1(x, y) WHERE T(x);
		Q3 := SELECT x, y FROM Q2(x, y) WHERE U(x);
		Q4 := SELECT x, y FROM R2(x, y) WHERE T(x);
		Q5 := SELECT x, y FROM Q3(x, y) WHERE Q4(x, x);`)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	builders := map[string]func() (*Plan, error){
		"sequnit": func() (*Plan, error) { return SeqUnitPlan("sequnit", prog) },
		"parunit": func() (*Plan, error) { return ParUnitPlan("parunit", prog) },
		"greedy":  func() (*Plan, error) { return est.GreedySGFPlan("greedysgf", prog) },
	}
	for name, build := range builders {
		plan, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engine := newTestEngine(cost.Default())
		outs, _, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range prog.Queries {
			wantSame(t, name+"/"+q.Name, outs.Relation(q.Name), want.Relation(q.Name))
		}
	}
}

// TestRandomQueriesAllStrategies is the central property test: random
// BSGF queries over random databases evaluate identically under the
// reference evaluator and every MR strategy.
func TestRandomQueriesAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	condRels := []string{"S", "T", "U"}
	guardVars := []string{"x", "y", "z"}
	for trial := 0; trial < 40; trial++ {
		db := relation.NewDatabase()
		db.Put(data.GuardSpec{Name: "R", Arity: 3, Tuples: 60, Domain: 12, Seed: int64(trial)}.Generate())
		for _, c := range condRels {
			r := relation.New(c, 1)
			for r.Size() < 6 {
				r.Add(tup(rng.Int63n(16)))
			}
			db.Put(r)
		}
		// Random condition over up to 4 literals.
		nLits := 1 + rng.Intn(4)
		var cond sgf.Condition
		for li := 0; li < nLits; li++ {
			var leaf sgf.Condition = sgf.AtomCond{Atom: sgf.NewAtom(
				condRels[rng.Intn(len(condRels))],
				sgf.V(guardVars[rng.Intn(len(guardVars))]),
			)}
			if rng.Intn(3) == 0 {
				leaf = sgf.Not{C: leaf}
			}
			if cond == nil {
				cond = leaf
			} else if rng.Intn(2) == 0 {
				cond = sgf.AndOf(cond, leaf)
			} else {
				cond = sgf.OrOf(cond, leaf)
			}
		}
		q := &sgf.BSGF{
			Name:   "Z",
			Select: []string{"x", "y"},
			Guard:  sgf.NewAtom("R", sgf.V("x"), sgf.V("y"), sgf.V("z")),
			Where:  cond,
		}
		prog := &sgf.Program{Queries: []*sgf.BSGF{q}}
		if err := sgf.Validate(prog); err != nil {
			t.Fatalf("trial %d: generated invalid query: %v", trial, err)
		}
		want, err := refeval.EvalOutput(prog, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, plan := range allStrategyPlans(t, q, db, prog) {
			got := runPlan(t, plan, db)
			if !got.Equal(want) {
				t.Fatalf("trial %d strategy %s query %s: mismatch\ngot:\n%s\nwant:\n%s",
					trial, plan.Strategy, q, got.Dump(), want.Dump())
			}
		}
	}
}

func TestPlanRoundsAndDeps(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	plan, err := ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// 2 MSJ jobs + 1 EVAL = 3 jobs, 2 rounds.
	if len(plan.Jobs) != 3 {
		t.Errorf("jobs = %d", len(plan.Jobs))
	}
	if plan.Rounds() != 2 {
		t.Errorf("rounds = %d", plan.Rounds())
	}
	if deps := plan.Deps(); len(deps[2]) != 2 {
		t.Errorf("eval deps = %v", deps[2])
	}
	seq, err := SeqPlan("seq", prog.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rounds() != 2 || len(seq.Jobs) != 2 {
		t.Errorf("seq: %d jobs %d rounds", len(seq.Jobs), seq.Rounds())
	}
	oneround := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(x);`)
	orPlan, err := OneRoundPlan("or", oneround.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if orPlan.Rounds() != 1 || len(orPlan.Jobs) != 1 {
		t.Errorf("1-round: %d jobs %d rounds", len(orPlan.Jobs), orPlan.Rounds())
	}
}

func TestExecRunnerMetrics(t *testing.T) {
	db := paperDB()
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	plan, err := ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	engine := newTestEngine(cost.Default())
	_, stats, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]cluster.Job, len(stats))
	cfg := cost.Default()
	deps := plan.Deps()
	for i, st := range stats {
		jobs[i] = cluster.Job{Name: st.Name, Plan: cfg.TasksLoaded(st.CostSpec(), nil), Deps: deps[i]}
	}
	res := cluster.Simulate(cluster.DefaultConfig(), jobs)
	if res.NetTime <= 0 || res.TotalTime < res.NetTime {
		t.Errorf("sim times: net=%v total=%v", res.NetTime, res.TotalTime)
	}
}

// TestPlanDepsBarriers pins the dependency graph Plan.Deps derives:
// every job waits for the producer of each relation it reads (the edges
// the engine's pipelined scheduler wires from mr.Program.ReadSets, so
// the cluster simulation never schedules a consumer before its
// producer), a one-group plan adds nothing to those, and under
// SEQUNIT, PARUNIT and GREEDY-SGF every job of a group waits for every
// job of the group before it. Groups are read off the job names
// SGFPlan gives them ("<plan>/g<i>/..."), not off Barriers.
func TestPlanDepsBarriers(t *testing.T) {
	check := func(plan *Plan) {
		t.Helper()
		deps := plan.Deps()
		for i, set := range plan.Program().ReadSets() {
			if !slices.IsSorted(deps[i]) || len(slices.Compact(slices.Clone(deps[i]))) != len(deps[i]) {
				t.Errorf("plan %s: job %d deps %v not ascending and distinct", plan.Name, i, deps[i])
			}
			var producers []int
			for k, prod := range set {
				if prod < 0 {
					continue
				}
				producers = append(producers, prod)
				if !slices.Contains(deps[i], prod) {
					t.Errorf("plan %s [%s]: job %d (%s) reads %q from job %d, missing from Deps %v",
						plan.Name, plan.Strategy, i, plan.Jobs[i].Name, plan.Jobs[i].Inputs[k], prod, deps[i])
				}
			}
			slices.Sort(producers)
			if plan.Barriers == nil && !slices.Equal(slices.Compact(producers), deps[i]) {
				t.Errorf("plan %s: one-group job %d deps %v, want its producers %v", plan.Name, i, deps[i], producers)
			}
		}
	}
	checkBarriers := func(plan *Plan) {
		t.Helper()
		var groups [][]int
		for i, job := range plan.Jobs {
			var g int
			if _, err := fmt.Sscanf(strings.TrimPrefix(job.Name, plan.Name+"/g"), "%d", &g); err != nil {
				t.Fatalf("plan %s: job %d name %q has no group", plan.Name, i, job.Name)
			}
			if g == len(groups) {
				groups = append(groups, nil)
			}
			if g != len(groups)-1 {
				t.Fatalf("plan %s: job %d (%s) out of group order", plan.Name, i, job.Name)
			}
			groups[g] = append(groups[g], i)
		}
		if len(plan.Barriers) != len(groups)-1 {
			t.Errorf("plan %s: %d barriers for %d groups", plan.Name, len(plan.Barriers), len(groups))
		}
		deps := plan.Deps()
		for g := 1; g < len(groups); g++ {
			for _, i := range groups[g] {
				for _, prev := range groups[g-1] {
					if !slices.Contains(deps[i], prev) {
						t.Errorf("plan %s [%s]: job %d (group %d) does not wait for job %d (group %d): deps %v",
							plan.Name, plan.Strategy, i, g, prev, g-1, deps[i])
					}
				}
			}
		}
	}

	// Flat strategies over the mixed-boolean running example.
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND (T(y) OR NOT U(x));`)
	for _, plan := range allStrategyPlans(t, prog.Queries[0], paperDB(), prog) {
		check(plan)
	}

	// Program strategies over random nested programs.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		nested := randomNestedProgram(rng, 3)
		db := nestedTestDB(rng)
		est := NewEstimator(cost.Default(), cost.Gumbo, db, nested)
		builders := map[string]func() (*Plan, error){
			"sequnit":   func() (*Plan, error) { return SeqUnitPlan("su", nested) },
			"parunit":   func() (*Plan, error) { return ParUnitPlan("pu", nested) },
			"greedysgf": func() (*Plan, error) { return est.GreedySGFPlan("gs", nested) },
		}
		for name, build := range builders {
			plan, err := build()
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, name, err)
			}
			check(plan)
			checkBarriers(plan)
		}
	}
}
