package gumbo

import (
	"strings"
	"testing"
)

func apiDB() *Database {
	db := NewDatabase()
	r := NewRelation("R", 2)
	r.Add(Tuple{Int(1), Int(10)})
	r.Add(Tuple{Int(2), Int(20)})
	r.Add(Tuple{Int(3), Int(10)})
	db.Put(r)
	db.Put(FromTuples("S", 1, []Tuple{{Int(1)}, {Int(3)}}))
	db.Put(FromTuples("T", 1, []Tuple{{Int(10)}}))
	return db
}

func TestParseAndDescribe(t *testing.T) {
	q := MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	if q.Name() != "Z" || q.Subqueries() != 1 || q.SemiJoins() != 2 || q.Nested() {
		t.Errorf("query introspection wrong: %s", q.Describe())
	}
	d := q.Describe()
	for _, want := range []string{"level 0", "R/2", "S/1", "T/1", "2 semi-joins"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	if _, err := Parse(`Z := SELECT q FROM R(x);`); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestRunAllPublicStrategies(t *testing.T) {
	q := MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	db := apiDB()
	want, err := Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	sys := New()
	for _, strat := range []Strategy{SEQ, PAR, Greedy, Opt, HPAR, HPARS, PPAR} {
		res, err := sys.Run(q, db, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Relation.Equal(want) {
			t.Errorf("%s: wrong output", strat)
		}
		if res.Metrics.NetTime <= 0 {
			t.Errorf("%s: empty metrics", strat)
		}
	}
}

func TestRunNestedProgram(t *testing.T) {
	q := MustParse(`
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x);
		Z2 := SELECT x FROM Z1(x, y) WHERE T(y);`)
	if !q.Nested() {
		t.Error("Nested() = false")
	}
	db := apiDB()
	want, err := Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	sys := New()
	for _, strat := range []Strategy{SeqUnit, ParUnit, GreedySGF} {
		res, err := sys.Run(q, db, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Relation.Equal(want) {
			t.Errorf("%s: wrong output", strat)
		}
	}
	// Flat strategies must refuse nested programs.
	if _, err := sys.Run(q, db, PAR); err == nil {
		t.Error("PAR accepted a nested program")
	}
}

func TestOneRoundViaPublicAPI(t *testing.T) {
	q := MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND NOT S(x) OR S(x);`)
	db := apiDB()
	sys := New()
	res, err := sys.Run(q, db, OneRound)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Eval(q, db)
	if !res.Relation.Equal(want) {
		t.Error("1-round output wrong")
	}
	if res.Plan.Rounds() != 1 {
		t.Errorf("rounds = %d", res.Plan.Rounds())
	}
}

func TestAutoStrategy(t *testing.T) {
	sys := New()
	if got := sys.Auto(MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(x);`)); got != OneRound {
		t.Errorf("Auto shared-key = %v", got)
	}
	if got := sys.Auto(MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`)); got != Greedy {
		t.Errorf("Auto flat = %v", got)
	}
	if got := sys.Auto(MustParse(`Z1 := SELECT x, y FROM R(x, y) WHERE S(x); Z2 := SELECT x FROM Z1(x, y);`)); got != GreedySGF {
		t.Errorf("Auto nested = %v", got)
	}
}

func TestPlanIntrospection(t *testing.T) {
	q := MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
	sys := New()
	plan, err := sys.Plan(q, apiDB(), PAR)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Jobs() != 3 || plan.Rounds() != 2 || plan.Strategy() != PAR {
		t.Errorf("plan = %s", plan)
	}
	if !strings.Contains(plan.String(), "3 jobs") {
		t.Errorf("String = %q", plan)
	}
}

func TestSystemOptions(t *testing.T) {
	cfg := DefaultCostConfig()
	cfg.JobOverhead = 0
	sys := New(WithCostConfig(cfg), WithCluster(2, 4), WithScale(0.5))
	if sys.cfg.Cost.JobOverhead != 0 {
		t.Error("WithCostConfig not applied")
	}
	if sys.clusterCfg.Nodes != 2 || sys.clusterCfg.SlotsPerNode != 4 {
		t.Error("WithCluster not applied")
	}
	if sys.cfg.Cost.BufMapMB != cfg.BufMapMB*0.5 {
		t.Error("WithScale not applied")
	}
}

func TestValuesAndStrings(t *testing.T) {
	if Str("bad") != Str("bad") || Str("bad") == Str("good") {
		t.Error("string interning broken via facade")
	}
	if Int(7).Text() != "7" || Str("x").Text() != "x" {
		t.Error("Text broken")
	}
}

func TestBaseRelationArities(t *testing.T) {
	q := MustParse(`
		Z1 := SELECT aut FROM Amaz(ttl, aut, "bad") WHERE BN(ttl, aut, "bad");
		Z2 := SELECT new, aut FROM Upcoming(new, aut) WHERE NOT Z1(aut);`)
	got := q.BaseRelationArities()
	want := map[string]int{"Amaz": 3, "BN": 3, "Upcoming": 2}
	if len(got) != len(want) {
		t.Fatalf("arities = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s arity = %d, want %d", k, got[k], v)
		}
	}
}
