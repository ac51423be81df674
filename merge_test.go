package gumbo

import (
	"testing"
)

// TestMergeQueries: a merged program's outputs equal each query's solo
// Eval, under the reference evaluator, GREEDY-SGF and Auto's pick.
func TestMergeQueries(t *testing.T) {
	// bookstore is R, S and T over pairs, so the queries below can share
	// the binary atom S(x, y).
	bookstore := NewDatabase()
	bookstore.Put(FromTuples("R", 2, []Tuple{{Int(1), Int(2)}, {Int(2), Int(3)}, {Int(4), Int(5)}, {Int(6), Int(7)}}))
	bookstore.Put(FromTuples("S", 2, []Tuple{{Int(1), Int(2)}, {Int(3), Int(2)}, {Int(5), Int(4)}}))
	bookstore.Put(FromTuples("T", 2, []Tuple{{Int(1), Int(100)}, {Int(2), Int(200)}, {Int(6), Int(300)}}))
	cases := []struct {
		name    string
		db      *Database
		queries []string
	}{
		{"two guards", apiDB(), []string{
			`Z1 := SELECT x, y FROM R(x, y) WHERE S(x);`,
			`Z2 := SELECT x, y FROM R(x, y) WHERE T(y);`,
		}},
		{"four overlapping", bookstore, []string{
			`Z1 := SELECT x, y FROM R(x, y) WHERE S(x, y) AND T(x, z);`,
			`Z2 := SELECT x FROM R(x, y) WHERE S(x, y);`,
			`Z3 := SELECT y FROM R(x, y) WHERE T(x, z);`,
			`Z4 := SELECT x, y FROM R(x, y) WHERE S(y, x);`,
		}},
	}
	sys := New()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qs := make([]*Query, len(tc.queries))
			for i, src := range tc.queries {
				qs[i] = MustParse(src)
			}
			merged, err := Merge(qs...)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Subqueries() != len(qs) {
				t.Errorf("subqueries = %d, want %d", merged.Subqueries(), len(qs))
			}
			out, err := EvalAll(merged, tc.db)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]*Database{"EvalAll": out}
			for _, strat := range []Strategy{GreedySGF, sys.Auto(merged)} {
				res, err := sys.Run(merged, tc.db, strat)
				if err != nil {
					t.Fatalf("%s: %v", strat, err)
				}
				runs[string(strat)] = res.Outputs
			}
			for _, q := range qs {
				want, err := Eval(q, tc.db)
				if err != nil {
					t.Fatal(err)
				}
				for by, got := range runs {
					if !got.Relation(q.Name()).Equal(want) {
						t.Errorf("%s: merged %s deviates from its solo Eval", by, q.Name())
					}
				}
			}
		})
	}
}

func TestMergeSharesWork(t *testing.T) {
	// Two queries over the same guard: the merged Greedy plan uses
	// fewer jobs than the two separate plans combined.
	q1 := MustParse(`Z1 := SELECT x, y FROM R(x, y) WHERE S(x);`)
	q2 := MustParse(`Z2 := SELECT x, y FROM R(x, y) WHERE T(y);`)
	merged, err := Merge(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	db := apiDB()
	sys := New()
	mergedPlan, err := sys.Plan(merged, db, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := sys.Plan(q1, db, Greedy)
	p2, _ := sys.Plan(q2, db, Greedy)
	if mergedPlan.Jobs() >= p1.Jobs()+p2.Jobs() {
		t.Errorf("merged plan has %d jobs vs separate %d+%d",
			mergedPlan.Jobs(), p1.Jobs(), p2.Jobs())
	}
}

func TestMergeConflicts(t *testing.T) {
	q1 := MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x);`)
	q2 := MustParse(`Z := SELECT x FROM G(x, y) WHERE T(x);`)
	if _, err := Merge(q1, q2); err == nil {
		t.Error("duplicate output accepted")
	}
	// q4 reads base relation Z1, which q3 defines: ambiguous merge.
	q3 := MustParse(`Z1 := SELECT x FROM R(x, y) WHERE S(x);`)
	q4 := MustParse(`W := SELECT x FROM Z1(x) WHERE T(x);`)
	if _, err := Merge(q3, q4); err == nil {
		t.Error("base/output collision accepted")
	}
}
