package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// benchDB builds a mid-sized database for planner tests: a 4-ary guard R
// and unary conditionals S, T, U, V with 50% matching tuples.
func benchDB(tuples int, seed int64) *relation.Database {
	db := relation.NewDatabase()
	guard := data.GuardSpec{Name: "R", Arity: 4, Tuples: tuples, Seed: seed}.Generate()
	db.Put(guard)
	for i, name := range []string{"S", "T", "U", "V"} {
		db.Put(data.CondSpec{
			Name: name, Arity: 1, Tuples: tuples,
			Guard: guard, Col: i % 4, MatchFrac: 0.5, Seed: seed + int64(i) + 1,
		}.Generate())
	}
	return db
}

func TestOneRoundApplicability(t *testing.T) {
	cases := []struct {
		src  string
		want OneRoundMode
	}{
		{`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(x) AND U(x);`, OneRoundShared},
		{`Z := SELECT x FROM R(x, y) WHERE S(x) OR (T(x) AND U(x));`, OneRoundShared},
		{`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`, OneRoundInapplicable},
		{`Z := SELECT x FROM R(x, y) WHERE S(x) OR T(y);`, OneRoundDisjunctive},
		{`Z := SELECT x FROM R(x, y) WHERE S(x) OR NOT T(y);`, OneRoundDisjunctive},
		{`Z := SELECT x FROM R(x, y) WHERE NOT (S(x) OR T(y));`, OneRoundInapplicable},
		{`Z := SELECT x FROM R(x, y) WHERE S(x);`, OneRoundShared},
		{`Z := SELECT x FROM R(x, y);`, OneRoundInapplicable},
		// Same variable set but different order: not a shared key; it is
		// a single literal, hence disjunctive.
		{`Z := SELECT x FROM R(x, y) WHERE P(q) AND S(x, y) AND T(y, x);`, OneRoundInapplicable},
	}
	for _, c := range cases {
		q := sgf.MustParse(c.src).Queries[0]
		if got := OneRoundApplicable(q); got != c.want {
			t.Errorf("%s: mode = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestGreedyGroupsSharedGuard(t *testing.T) {
	// A1: four semi-joins over one guard. Reading R once instead of four
	// times is a clear gain, so Greedy-BSGF should produce one group.
	db := benchDB(3000, 1)
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w)
		WHERE S(x) AND T(y) AND U(z) AND V(w);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	eqs := ExtractEquations(prog.Queries)
	part := est.GreedyBSGF(eqs)
	if len(part) != 1 || len(part[0]) != 4 {
		t.Errorf("Greedy-BSGF partition = %s, want one group of 4", PartitionString(part))
	}
}

func TestGreedyKeepsDisjointQueriesApart(t *testing.T) {
	// A4: two guards with disjoint conditionals; with the default
	// overhead, grouping across guards has no sharing gain, so the
	// partition should not mix guards... unless job overhead dominates.
	// With zero job overhead there is no cross-guard gain at all.
	db := benchDB(3000, 2)
	guard2 := data.GuardSpec{Name: "G", Arity: 4, Tuples: 3000, Seed: 77}.Generate()
	db.Put(guard2)
	for i, name := range []string{"W", "X", "Y", "Q"} {
		db.Put(data.CondSpec{Name: name, Arity: 1, Tuples: 3000, Guard: guard2, Col: i, MatchFrac: 0.5, Seed: int64(90 + i)}.Generate())
	}
	prog := sgf.MustParse(`
		Z1 := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);
		Z2 := SELECT x, y, z, w FROM G(x, y, z, w) WHERE W(x) AND X(y) AND Y(z) AND Q(w);`)
	cfg := cost.Default()
	cfg.JobOverhead = 0
	est := NewEstimator(cfg, cost.Gumbo, db, prog)
	eqs := ExtractEquations(prog.Queries)
	part := est.GreedyBSGF(eqs)
	for _, group := range part {
		guards := map[string]bool{}
		for _, i := range group {
			guards[eqs[i].Guard.Rel] = true
		}
		if len(guards) > 1 {
			t.Errorf("group %v mixes guards %v", group, guards)
		}
	}
}

func TestGreedyNeverWorseThanSingletonsOrOneGroup(t *testing.T) {
	db := benchDB(2000, 3)
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w)
		WHERE S(x) AND T(x) AND U(x) AND V(x);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	eqs := ExtractEquations(prog.Queries)
	greedy := est.PartitionCost(eqs, est.GreedyBSGF(eqs))
	single := est.PartitionCost(eqs, Singletons(len(eqs)))
	one := est.PartitionCost(eqs, OneGroup(len(eqs)))
	if greedy > single+1e-9 {
		t.Errorf("greedy %v worse than singletons %v", greedy, single)
	}
	if greedy > one+1e-9 {
		t.Errorf("greedy %v worse than one group %v", greedy, one)
	}
}

func TestGreedyVsBruteForce(t *testing.T) {
	// On small random instances, greedy must be within a small factor of
	// the optimum, and brute force is never beaten.
	rng := rand.New(rand.NewSource(5))
	names := []string{"S", "T", "U", "V"}
	for trial := 0; trial < 8; trial++ {
		db := benchDB(800, int64(trial+10))
		vars := []string{"x", "y", "z", "w"}
		var conds []sgf.Condition
		n := 3 + rng.Intn(3)
		for i := 0; i < n; i++ {
			conds = append(conds, sgf.AtomCond{Atom: sgf.NewAtom(
				names[rng.Intn(len(names))], sgf.V(vars[rng.Intn(len(vars))]))})
		}
		q := &sgf.BSGF{
			Name:   "Z",
			Select: vars,
			Guard:  sgf.NewAtom("R", sgf.V("x"), sgf.V("y"), sgf.V("z"), sgf.V("w")),
			Where:  sgf.AndOf(conds...),
		}
		est := NewEstimator(cost.Default(), cost.Gumbo, db, nil)
		eqs := ExtractEquations([]*sgf.BSGF{q})
		greedyPart := est.GreedyBSGF(eqs)
		if !ValidPartition(greedyPart, len(eqs)) {
			t.Fatalf("trial %d: invalid greedy partition %s", trial, PartitionString(greedyPart))
		}
		optPart, optCost, err := est.BruteForceBSGF(eqs)
		if err != nil {
			t.Fatal(err)
		}
		if !ValidPartition(optPart, len(eqs)) {
			t.Fatalf("trial %d: invalid opt partition", trial)
		}
		greedyCost := est.PartitionCost(eqs, greedyPart)
		if optCost > greedyCost+1e-9 {
			t.Errorf("trial %d: brute force %v worse than greedy %v", trial, optCost, greedyCost)
		}
		if greedyCost > 1.5*optCost+1e-9 {
			t.Errorf("trial %d: greedy %v far from optimal %v", trial, greedyCost, optCost)
		}
	}
}

func TestGainIdentity(t *testing.T) {
	db := benchDB(1000, 9)
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	eqs := ExtractEquations(prog.Queries)
	g := est.Gain(eqs, []int{0}, []int{1})
	manual := est.MSJCost(eqs, []int{0}) + est.MSJCost(eqs, []int{1}) - est.MSJCost(eqs, []int{0, 1})
	if g != manual {
		t.Errorf("Gain = %v, manual = %v", g, manual)
	}
	if g <= 0 {
		t.Errorf("shared-guard gain should be positive, got %v", g)
	}
}

func TestEstimatorSampledVsMeasured(t *testing.T) {
	// The sampled MSJ spec should be close to the engine's measured
	// stats for a uniform mapper (within sampling error).
	db := benchDB(5000, 11)
	prog := sgf.MustParse(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	eqs := ExtractEquations(prog.Queries)
	spec := est.MSJSpec(eqs, []int{0, 1})

	job, err := NewMSJJob("measure", eqs)
	if err != nil {
		t.Fatal(err)
	}
	// Disable packing for the comparison: the estimator predicts raw
	// map output, before packing.
	job.Packing = false
	engine := newTestEngine(cost.Default())
	_, stats, err := runJob(context.Background(), engine, job, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spec.Partitions {
		var measured float64
		for _, mp := range stats.Parts {
			if mp.Input == p.Name {
				measured = mp.InterMB
			}
		}
		if measured == 0 {
			t.Fatalf("no measured part for %s", p.Name)
		}
		ratio := p.InterMB / measured
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("estimate for %s off: est %v measured %v", p.Name, p.InterMB, measured)
		}
	}
}

func TestEstimatorDerivedRelationBounds(t *testing.T) {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{tup(1, 2), tup(3, 4)}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(1)}))
	prog := sgf.MustParse(`
		Z1 := SELECT x, y FROM R(x, y) WHERE S(x);
		Z2 := SELECT x FROM Z1(x, y) WHERE S(y);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	// Z1 is not materialized: its bound follows R's cardinality.
	info := est.rel("Z1")
	if info.count != 2 {
		t.Errorf("derived bound = %v, want 2", info.count)
	}
	// Cost of the dependent query must be finite and positive.
	eqs := ExtractEquations(prog.Queries[1:])
	if c := est.MSJCost(eqs, []int{0}); c <= 0 {
		t.Errorf("MSJCost over derived relation = %v", c)
	}
}

func TestGreedySGFPaperExample(t *testing.T) {
	// Example 5: Greedy-SGF should find a sort that groups Q4 with an
	// overlapping group (T overlaps Q2, R2 nothing, Z3... Q4 shares T
	// with Q2), giving ({Q1},{Q2,Q4},{Q3},{Q5}) — sort 2 of the paper.
	prog := sgf.MustParse(`
		Q1 := SELECT x, y FROM R1(x, y) WHERE S(x);
		Q2 := SELECT x, y FROM Q1(x, y) WHERE T(x);
		Q3 := SELECT x, y FROM Q2(x, y) WHERE U(x);
		Q4 := SELECT x, y FROM R2(x, y) WHERE T(x);
		Q5 := SELECT x, y FROM Q3(x, y) WHERE Q4(x, x);`)
	s := GreedySGF(prog)
	g := sgf.BuildDepGraph(prog)
	if !s.Valid(g) {
		t.Fatalf("Greedy-SGF produced invalid sort %v", s)
	}
	// Q4 (index 3) should share a group with Q2 (index 1).
	foundTogether := false
	for _, f := range s {
		has1, has3 := false, false
		for _, v := range f {
			if v == 1 {
				has1 = true
			}
			if v == 3 {
				has3 = true
			}
		}
		if has1 && has3 {
			foundTogether = true
		}
	}
	if !foundTogether {
		t.Errorf("Greedy-SGF sort %v does not group Q2 with Q4", s)
	}
}

func TestGreedySGFMatchesBruteForceOnSmallPrograms(t *testing.T) {
	// §5.3: "Greedy-SGF yields multiway topological sorts identical to
	// the optimal topological sort" for the tested queries. Check cost
	// equality (the sort itself may differ in irrelevant ways).
	db := relation.NewDatabase()
	seedRel := func(name string, arity, n int) {
		db.Put(data.GuardSpec{Name: name, Arity: arity, Tuples: n, Seed: int64(len(name))}.Generate())
	}
	seedRel("R", 4, 800)
	seedRel("G", 4, 800)
	seedRel("H", 4, 800)
	seedRel("S", 1, 200)
	seedRel("T", 1, 200)
	seedRel("U", 1, 200)
	prog := sgf.MustParse(`
		Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);
		Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);
		Z3 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);
		Z4 := SELECT x FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);
		Z5 := SELECT x FROM H(x, y, z, w) WHERE Z2(x) AND Z2(y);
		Z6 := SELECT x FROM R(x, y, z, w) WHERE Z3(x) AND Z3(y);`)
	est := NewEstimator(cost.Default(), cost.Gumbo, db, prog)
	greedySort := GreedySGF(prog)
	if !greedySort.Valid(sgf.BuildDepGraph(prog)) {
		t.Fatal("invalid greedy sort")
	}
	greedyCost := est.SortCost(prog, greedySort)
	_, optCost, err := est.BruteForceSGF(prog)
	if err != nil {
		t.Fatal(err)
	}
	if optCost > greedyCost+1e-9 {
		t.Errorf("brute force %v worse than greedy %v", optCost, greedyCost)
	}
	// Greedy-SGF merges overlapping queries, so it is never worse than
	// the all-singletons (SEQUNIT) sort under the cost model. (It can
	// miss the optimum: the overlap heuristic is cost-blind, which is
	// most visible at small scale where job overhead dominates.)
	seqUnitCost := est.SortCost(prog, SeqUnitSort(prog))
	if greedyCost > seqUnitCost+1e-9 {
		t.Errorf("greedy sort cost %v worse than SEQUNIT %v", greedyCost, seqUnitCost)
	}
	// The expected grouping: Z4 with Z2 (shared G), Z5 with Z3 (shared
	// H); so the sort has at most 4 groups.
	if len(greedySort) > 4 {
		t.Errorf("greedy sort %v did not merge overlapping queries", greedySort)
	}
}

// TestBruteForceLimitsAreErrors: past their enumeration limits the exact
// planners return ErrPlanTooLarge, naming the limit and the size, where
// they used to panic — on the server the size is a client's choice.
func TestBruteForceLimitsAreErrors(t *testing.T) {
	var conds []string
	var prog strings.Builder
	for i := 0; i <= maxBruteForceEquations; i++ {
		conds = append(conds, fmt.Sprintf("S(x, a%d)", i))
	}
	for i := 0; i <= maxBruteForceQueries; i++ {
		fmt.Fprintf(&prog, "Z%d := SELECT x FROM R(x, y) WHERE S(x, y);\n", i)
	}
	db := relation.NewDatabase()
	est := NewEstimator(cost.Default(), cost.Gumbo, db, nil)

	q := sgf.MustParse("Z := SELECT x FROM R(x, y) WHERE " + strings.Join(conds, " OR ") + ";").Queries
	for _, call := range []func() error{
		func() error { _, _, err := est.BruteForceBSGF(ExtractEquations(q)); return err },
		func() error { _, err := est.OptPlan("opt", q); return err },
	} {
		if err := call(); !errors.Is(err, ErrPlanTooLarge) || !strings.Contains(err.Error(), "at most 12 semi-joins, this query has 13") {
			t.Errorf("13 equations: %v, want ErrPlanTooLarge stating 12 and 13", err)
		}
	}
	if _, _, err := est.BruteForceSGF(sgf.MustParse(prog.String())); !errors.Is(err, ErrPlanTooLarge) || !strings.Contains(err.Error(), "at most 10 queries, this program has 11") {
		t.Errorf("11 queries: %v, want ErrPlanTooLarge stating 10 and 11", err)
	}
}
