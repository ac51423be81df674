package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// skewedDB builds a guard whose join column has one dominant value
// ("heavy hitter") plus a uniform tail, and a matching conditional.
func skewedDB(n int, heavyShare float64, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	guard := relation.New("R", 2)
	hot := relation.Value(7)
	id := int64(0)
	for guard.Size() < n {
		id++
		var x relation.Value
		if rng.Float64() < heavyShare {
			x = hot
		} else {
			x = relation.Value(100 + rng.Int63n(int64(n)*4))
		}
		guard.Add(relation.Tuple{x, relation.Value(id)})
	}
	cond := relation.New("S", 1)
	cond.Add(relation.Tuple{hot})
	for cond.Size() < n/10 {
		cond.Add(relation.Tuple{relation.Value(100 + rng.Int63n(int64(n)*4))})
	}
	db := relation.NewDatabase()
	db.Put(guard)
	db.Put(cond)
	return db
}

func skewQuery() *sgf.Program {
	return sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x);`)
}

func TestDetectHeavyKeys(t *testing.T) {
	db := skewedDB(20000, 0.3, 1)
	prog := skewQuery()
	eqs := ExtractEquations(prog.Queries)
	heavy := DetectHeavyKeys(eqs, db)
	hotKey := relation.Tuple{relation.Value(7)}.Key()
	if !heavy[hotKey] {
		t.Fatalf("hot key not detected; heavy set size %d", len(heavy))
	}
	// The uniform tail must not be flagged (allow a couple of sampling
	// artifacts).
	if len(heavy) > 3 {
		t.Errorf("too many heavy keys: %d", len(heavy))
	}
	// Uniform data: nothing heavy.
	uniform := skewedDB(20000, 0, 2)
	if got := DetectHeavyKeys(eqs, uniform); len(got) != 0 {
		t.Errorf("uniform data produced heavy keys: %d", len(got))
	}
}

func TestSkewMitigationPreservesOutput(t *testing.T) {
	db := skewedDB(20000, 0.3, 3)
	prog := skewQuery()
	eqs := ExtractEquations(prog.Queries)
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SkewAwareBasicPlan("skew", StrategyGreedy, prog.Queries, eqs,
		OneGroup(len(eqs)), db)
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, db)
	if !got.Equal(want) {
		t.Errorf("skew-aware plan output wrong:\n%s\nvs\n%s", got.Dump(), want.Dump())
	}
}

func TestSkewMitigationBalancesReducers(t *testing.T) {
	db := skewedDB(40000, 0.4, 4)
	prog := skewQuery()
	eqs := ExtractEquations(prog.Queries)
	engine := newTestEngine(cost.Default().Scaled(0.0002)) // many reducers

	plain, err := NewMSJJob("plain", eqs)
	if err != nil {
		t.Fatal(err)
	}
	_, plainStats, err := runJob(context.Background(), engine, plain, db)
	if err != nil {
		t.Fatal(err)
	}
	heavy := DetectHeavyKeys(eqs, db)
	if len(heavy) == 0 {
		t.Fatal("no heavy keys detected")
	}
	salted, err := NewMSJJobSkew("salted", eqs, heavy)
	if err != nil {
		t.Fatal(err)
	}
	_, saltedStats, err := runJob(context.Background(), engine, salted, db)
	if err != nil {
		t.Fatal(err)
	}
	if plainStats.Reducers < 4 {
		t.Skipf("only %d reducers; skew not observable", plainStats.Reducers)
	}
	pi, si := plainStats.ReduceImbalance(), saltedStats.ReduceImbalance()
	if pi < 1.5 {
		t.Fatalf("test data not skewed enough: plain imbalance %.2f", pi)
	}
	if si > pi*0.7 {
		t.Errorf("salting did not balance reducers: %.2f -> %.2f", pi, si)
	}
}

func TestSkewJobNoHeavyKeysIsPlainMSJ(t *testing.T) {
	db := skewedDB(1000, 0, 5)
	prog := skewQuery()
	eqs := ExtractEquations(prog.Queries)
	job, err := NewMSJJobSkew("x", eqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "x" {
		t.Errorf("no-op skew job renamed: %s", job.Name)
	}
	_ = db
}

// TestSaltedPlanIgnoresEngineSplit pins the decoupling: salting is a
// property of the plan alone. The same salted plan run on an engine
// with runtime splitting on keeps its salted job and gives outputs and
// stats bit-for-bit equal (up to the split observability fields) to a
// split-off engine's — and to the reference evaluator.
func TestSaltedPlanIgnoresEngineSplit(t *testing.T) {
	db := skewedDB(20000, 0.3, 6)
	prog := skewQuery()
	eqs := ExtractEquations(prog.Queries)
	want, err := refeval.EvalOutput(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SkewAwareBasicPlan("salt", StrategyGreedy, prog.Queries, eqs,
		OneGroup(len(eqs)), db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Jobs[0].Name != "salt/msj0+skew" {
		t.Fatalf("plan over a 30%% hot key is not salted: job %s", plan.Jobs[0].Name)
	}
	run := func(split float64) (*relation.Relation, []mr.JobStats) {
		e := mr.NewEngine(mr.Config{Cost: cost.Default().Scaled(0.0002), SkewSplit: split})
		outs, stats, _, err := e.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
		if err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		for i := range stats {
			stats[i] = stats[i].StripSplitInfo()
		}
		return outs.Relation("Z"), stats
	}
	offOut, offStats := run(0)
	onOut, onStats := run(1.3)
	if !offOut.Equal(want) || !onOut.Equal(want) {
		t.Errorf("salted plan output differs from the reference evaluator")
	}
	if !reflect.DeepEqual(onStats, offStats) {
		t.Errorf("salted plan stats depend on the engine's split setting:\n%+v\nvs\n%+v", onStats, offStats)
	}
}

func TestSaltKeyDistinctness(t *testing.T) {
	base := relation.Tuple{relation.Value(7)}.Key()
	seen := map[string]bool{base: true}
	for s := 0; s < 32; s++ {
		k := string(appendSalt(append([]byte(nil), base...), s))
		if seen[k] {
			t.Fatalf("salt collision at %d", s)
		}
		seen[k] = true
	}
}

func TestSaltOfDeterministicAndSpread(t *testing.T) {
	counts := make([]int, 8)
	for id := int64(0); id < 8000; id++ {
		s := saltOf(id, 8)
		if s != saltOf(id, 8) {
			t.Fatal("saltOf not deterministic")
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("salt %d count %d far from uniform", s, c)
		}
	}
}
