package refeval

import (
	"testing"

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

func db(rels ...*relation.Relation) *relation.Database {
	d := relation.NewDatabase()
	for _, r := range rels {
		d.Put(r)
	}
	return d
}

func evalOne(t *testing.T, src string, d *relation.Database) *relation.Relation {
	t.Helper()
	p := sgf.MustParse(src)
	out, err := EvalOutput(p, d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func wantTuples(t *testing.T, got *relation.Relation, want ...relation.Tuple) {
	t.Helper()
	if got.Size() != len(want) {
		t.Fatalf("got %d tuples, want %d:\n%s", got.Size(), len(want), got.Dump())
	}
	for _, w := range want {
		if !got.Contains(w) {
			t.Errorf("missing tuple %v:\n%s", w, got.Dump())
		}
	}
}

func TestPaperExample3(t *testing.T) {
	// Z := π_x(R(x,z) ⋉ S(z,y)) on I = {R(1,2), R(4,5), S(2,3)} gives Z(1).
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(4, 5)}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(2, 3)}),
	)
	out := evalOne(t, `Z := SELECT x FROM R(x, z) WHERE S(z, y);`, d)
	wantTuples(t, out, tup(1))
}

func TestIntersectionAndDifference(t *testing.T) {
	d := db(
		relation.FromTuples("R", 1, []relation.Tuple{tup(1), tup(2), tup(3)}),
		relation.FromTuples("S", 1, []relation.Tuple{tup(2), tup(3), tup(4)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x) WHERE S(x);`, d), tup(2), tup(3))
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x) WHERE NOT S(x);`, d), tup(1))
}

func TestSemiAndAntiJoin(t *testing.T) {
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 10), tup(2, 20), tup(3, 10)}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(10, 7)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x, y FROM R(x, y) WHERE S(y, z);`, d),
		tup(1, 10), tup(3, 10))
	wantTuples(t, evalOne(t, `Z := SELECT x, y FROM R(x, y) WHERE NOT S(y, z);`, d),
		tup(2, 20))
}

func TestXorQueryZ5(t *testing.T) {
	// Z5 from Example 1: pairs (x,y) with R(x,y,4) where exactly one of
	// S(1,x), S(y,10) holds.
	d := db(
		relation.FromTuples("R", 3, []relation.Tuple{
			tup(5, 6, 4),  // S(1,5) yes, S(6,10) no -> out
			tup(7, 8, 4),  // S(1,7) no, S(8,10) yes -> out
			tup(5, 8, 4),  // both -> not out
			tup(9, 9, 4),  // neither -> not out
			tup(5, 6, 99), // wrong constant -> not a guard fact
		}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(1, 5), tup(8, 10)}),
	)
	out := evalOne(t, `Z5 := SELECT x, y FROM R(x, y, 4)
		WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));`, d)
	wantTuples(t, out, tup(5, 6), tup(7, 8))
}

func TestProjectionDoesNotMergeGuardFacts(t *testing.T) {
	// Two guard facts project to the same output tuple but satisfy
	// different conditionals; the per-substitution semantics must see
	// them separately. R(1,3) has no S(3) fact, so NOT S(y) holds via
	// y=3 even though S(2) exists for the sibling fact R(1,2).
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(1, 3)}),
		relation.FromTuples("S", 1, []relation.Tuple{tup(2)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x, y) WHERE NOT S(y);`, d), tup(1))
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x, y) WHERE S(y);`, d), tup(1))
}

func TestEmptyJoinKeyConditional(t *testing.T) {
	// Conditional atom shares no variables with the guard: it is true iff
	// any conforming fact exists.
	d := db(
		relation.FromTuples("R", 1, []relation.Tuple{tup(1), tup(2)}),
		relation.FromTuples("S", 1, []relation.Tuple{tup(99)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x) WHERE S(q);`, d), tup(1), tup(2))
	empty := db(
		relation.FromTuples("R", 1, []relation.Tuple{tup(1)}),
		relation.New("S", 1),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x) WHERE S(q);`, empty))
}

func TestGuardWithRepeatedVariable(t *testing.T) {
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 1), tup(1, 2), tup(3, 3)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x, x);`, d), tup(1), tup(3))
}

func TestConditionalWithRepeatedVariable(t *testing.T) {
	// T(y, y) requires a T-fact with equal fields matching y.
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 5), tup(2, 6)}),
		relation.FromTuples("T", 2, []relation.Tuple{tup(5, 5), tup(6, 7)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x, y) WHERE T(y, y);`, d), tup(1))
}

func TestConditionalConstantsFilter(t *testing.T) {
	d := db(
		relation.FromTuples("R", 1, []relation.Tuple{tup(5), tup(7)}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(1, 5), tup(2, 7)}),
	)
	wantTuples(t, evalOne(t, `Z := SELECT x FROM R(x) WHERE S(1, x);`, d), tup(5))
}

func TestBookstoreExample2(t *testing.T) {
	bad := relation.String("bad")
	good := relation.String("good")
	row := func(ttl, aut int64, rating relation.Value) relation.Tuple {
		return relation.Tuple{relation.Value(ttl), relation.Value(aut), rating}
	}
	d := db(
		relation.FromTuples("Amaz", 3, []relation.Tuple{row(1, 100, bad), row(2, 200, bad), row(3, 300, good)}),
		relation.FromTuples("BN", 3, []relation.Tuple{row(1, 100, bad), row(2, 200, good)}),
		relation.FromTuples("BD", 3, []relation.Tuple{row(1, 100, bad)}),
		relation.FromTuples("Upcoming", 2, []relation.Tuple{tup(10, 100), tup(20, 200), tup(30, 300)}),
	)
	// Author 100 has a universally bad-rated title; 200 and 300 do not.
	out := evalOne(t, `
		Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
			WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");
		Z2 := SELECT new, aut FROM Upcoming(new, aut) WHERE NOT Z1(aut);`, d)
	wantTuples(t, out, tup(20, 200), tup(30, 300))
}

func TestProgramChaining(t *testing.T) {
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(3, 4), tup(5, 6)}),
		relation.FromTuples("S", 1, []relation.Tuple{tup(1), tup(3)}),
		relation.FromTuples("T", 1, []relation.Tuple{tup(3)}),
	)
	p := sgf.MustParse(`
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x);
		Z2 := SELECT x, y FROM Z1(x, y) WHERE T(x);`)
	outs, err := EvalProgram(p, d)
	if err != nil {
		t.Fatal(err)
	}
	wantTuples(t, outs.Relation("Z1"), tup(1, 2), tup(3, 4))
	wantTuples(t, outs.Relation("Z2"), tup(3, 4))
	if d.Has("Z1") {
		t.Error("EvalProgram mutated the input database")
	}
}

func TestErrors(t *testing.T) {
	d := db(relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2)}))
	p := sgf.MustParse(`Z := SELECT x FROM Missing(x);`)
	if _, err := EvalOutput(p, d); err == nil {
		t.Error("missing guard relation accepted")
	}
	p2 := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE Q(x);`)
	if _, err := EvalOutput(p2, d); err == nil {
		t.Error("missing conditional relation accepted")
	}
	p3 := sgf.MustParse(`Z := SELECT x FROM R(x);`)
	if _, err := EvalOutput(p3, d); err == nil {
		t.Error("guard arity mismatch accepted")
	}
	if _, err := sgf.Parse(`Z := SELECT x FROM R(x, y) WHERE R(x);`); err == nil {
		t.Error("parser should reject inconsistent arity")
	}
}

func TestSemiJoinHelper(t *testing.T) {
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(4, 5)}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(2, 3)}),
	)
	out, err := EvalBSGF(&sgf.BSGF{
		Name:   "semijoin",
		Select: []string{"x"},
		Guard:  sgf.NewAtom("R", sgf.V("x"), sgf.V("z")),
		Where:  sgf.AtomCond{Atom: sgf.NewAtom("S", sgf.V("z"), sgf.V("y"))},
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	wantTuples(t, out, tup(1))
}

func TestStarSemiJoinZ6(t *testing.T) {
	d := db(
		relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(1, 9), tup(9, 2)}),
		relation.FromTuples("S", 2, []relation.Tuple{tup(1, 7), tup(2, 8)}),
	)
	out := evalOne(t, `Z6 := SELECT x1, x2 FROM R(x1, x2) WHERE S(x1, y1) AND S(x2, y2);`, d)
	wantTuples(t, out, tup(1, 2))
}
