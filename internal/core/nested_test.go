package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// randomNestedProgram builds a random valid SGF program of `depth`
// levels: level-0 queries read base relations; deeper queries may use
// earlier outputs as guards or conditionals.
func randomNestedProgram(rng *rand.Rand, depth int) *sgf.Program {
	prog := &sgf.Program{}
	baseGuards := []string{"R", "G"}
	conds := []string{"S", "T"}
	var prior []string // earlier outputs, all binary
	qn := 0
	for lvl := 0; lvl < depth; lvl++ {
		width := 1 + rng.Intn(2)
		var thisLevel []string
		for w := 0; w < width; w++ {
			qn++
			name := fmt.Sprintf("Z%d", qn)
			guard := baseGuards[rng.Intn(len(baseGuards))]
			if lvl > 0 && rng.Intn(2) == 0 {
				guard = prior[rng.Intn(len(prior))]
			}
			// Condition: 1-2 literals over base conds or prior outputs.
			var cs []sgf.Condition
			for li := 0; li < 1+rng.Intn(2); li++ {
				var atom sgf.Atom
				if lvl > 0 && rng.Intn(3) == 0 {
					atom = sgf.NewAtom(prior[rng.Intn(len(prior))], sgf.V("x"), sgf.V("y"))
				} else {
					atom = sgf.NewAtom(conds[rng.Intn(len(conds))], sgf.V([]string{"x", "y"}[rng.Intn(2)]))
				}
				var c sgf.Condition = sgf.AtomCond{Atom: atom}
				if rng.Intn(4) == 0 {
					c = sgf.Not{C: c}
				}
				cs = append(cs, c)
			}
			var where sgf.Condition
			if rng.Intn(2) == 0 {
				where = sgf.AndOf(cs...)
			} else {
				where = sgf.OrOf(cs...)
			}
			prog.Queries = append(prog.Queries, &sgf.BSGF{
				Name:   name,
				Select: []string{"x", "y"},
				Guard:  sgf.NewAtom(guard, sgf.V("x"), sgf.V("y")),
				Where:  where,
			})
			thisLevel = append(thisLevel, name)
		}
		prior = append(prior, thisLevel...)
	}
	return prog
}

func nestedTestDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	for _, g := range []string{"R", "G"} {
		r := relation.New(g, 2)
		for r.Size() < 40 {
			r.Add(relation.Tuple{relation.Value(rng.Int63n(10)), relation.Value(rng.Int63n(10))})
		}
		db.Put(r)
	}
	for _, c := range []string{"S", "T"} {
		r := relation.New(c, 1)
		for r.Size() < 5 {
			r.Add(relation.Tuple{relation.Value(rng.Int63n(12))})
		}
		db.Put(r)
	}
	return db
}

// TestRandomNestedPrograms checks all SGF-level strategies against the
// reference evaluator on randomly generated nested programs.
func TestRandomNestedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	engine := newTestEngine(cost.Default())
	for trial := 0; trial < 25; trial++ {
		prog := randomNestedProgram(rng, 1+rng.Intn(3))
		if err := sgf.Validate(prog); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v\n%s", trial, err, prog)
		}
		db := nestedTestDB(rng)
		want, err := refeval.EvalProgram(prog, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
		builders := map[string]func() (*Plan, error){
			"sequnit":   func() (*Plan, error) { return SeqUnitPlan("su", prog) },
			"parunit":   func() (*Plan, error) { return ParUnitPlan("pu", prog) },
			"greedysgf": func() (*Plan, error) { return est.GreedySGFPlan("gs", prog) },
		}
		for name, build := range builders {
			plan, err := build()
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, name, err, prog)
			}
			outs, _, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, name, err, prog)
			}
			for _, q := range prog.Queries {
				got := outs.Relation(q.Name)
				if got == nil || !got.Equal(want.Relation(q.Name)) {
					t.Fatalf("trial %d %s: output %s wrong\nprogram:\n%s", trial, name, q.Name, prog)
				}
			}
		}
	}
}

// TestRandomNestedOneRoundGroups exercises the 1-round fusion inside
// SGF plans when a whole group is applicable.
func TestNestedSharedKeyProgram(t *testing.T) {
	prog := sgf.MustParse(`
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x) AND T(x);
		Z2 := SELECT x, y FROM Z1(x, y) WHERE S(y) OR T(y);`)
	rng := rand.New(rand.NewSource(5))
	db := nestedTestDB(rng)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	// Plan each group as a 1-round job via a custom group planner.
	plan, err := SGFPlan("or", StrategyOneRound, prog, SeqUnitSort(prog),
		func(name string, queries []*sgf.BSGF) (*Plan, error) {
			return OneRoundPlan(name, queries)
		})
	if err != nil {
		t.Fatal(err)
	}
	engine := newTestEngine(cost.Default())
	outs, _, _, err := engine.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range prog.Queries {
		if !outs.Relation(q.Name).Equal(want.Relation(q.Name)) {
			t.Errorf("1-round group output %s wrong", q.Name)
		}
	}
	if len(plan.Jobs) != 2 {
		t.Errorf("jobs = %d, want 2 (one fused job per level)", len(plan.Jobs))
	}
}
