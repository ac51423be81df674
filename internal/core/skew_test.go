package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
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
	got := runPlan(t, plan, db, prog.Queries[0].Name)
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

// keyGroup is what a recording reducer saw in one Reduce call.
type keyGroup struct {
	requests int
	asserts  map[int32]int // class → assert messages
}

// recordGroups runs job with a recording reducer in place of the real
// one and returns every key group it was handed.
func recordGroups(t *testing.T, job *mr.Job, db *relation.Database) map[string]keyGroup {
	t.Helper()
	var mu sync.Mutex
	groups := make(map[string]keyGroup)
	recording := *job
	recording.Reducer = mr.ReducerFunc(func(key []byte, msgs *mr.Group, _ *mr.Output) {
		g := keyGroup{asserts: make(map[int32]int)}
		for i := 0; i < msgs.Len(); i++ {
			switch tag, p := msgs.At(i); tag {
			case TagRequest:
				g.requests++
			case TagAssert:
				g.asserts[DecodeAssert(p).Class]++
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if _, dup := groups[string(key)]; dup {
			t.Errorf("%s: key %x reduced twice", job.Name, key)
		}
		groups[string(key)] = g
	})
	if _, _, err := runJob(context.Background(), newTestEngine(cost.Default().Scaled(0.0003)), &recording, db); err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestSaltingIsParallelCorrect checks the redistribution argument of
// the reconcile kernel on the salted plan, in the sense of Geck et al.
// (parallel-correctness): every fact a Reduce call needs to decide a
// request meets it at one reducer. What each join key's group must
// hold is computed from the data, what it does hold is recorded from
// the real mapper's output: every group holding a request of a heavy
// join key holds each assert class of that key exactly once, the heavy
// key's requests are spread over more than one group, and the light
// keys' groups are the plain job's, untouched.
func TestSaltingIsParallelCorrect(t *testing.T) {
	for _, wl := range []workload.Workload{workload.A1(), workload.A2()} {
		wl.Zipf = 0.8
		db := wl.Build(0.0003)
		eqs := ExtractEquations(wl.Program.Queries)
		heavy := DetectHeavyKeys(eqs, db)
		if len(heavy) == 0 {
			t.Fatalf("%s: no heavy key in a Zipf(0.8) guard", wl.Name)
		}
		plain, err := NewMSJJob("plain", eqs)
		if err != nil {
			t.Fatal(err)
		}
		salted, err := NewMSJJobSkew("salted", eqs, heavy)
		if err != nil {
			t.Fatal(err)
		}
		want, got := recordGroups(t, plain, db), recordGroups(t, salted, db)

		// classesAt[k]: the assert classes with a conditional fact at
		// join key k, classes numbered in order of first mention.
		classesAt := make(map[string]map[int32]bool)
		classOf := make(map[string]int32)
		for _, e := range eqs {
			ck := e.AssertClassKey()
			if _, seen := classOf[ck]; seen {
				continue
			}
			classOf[ck] = int32(len(classOf))
			matcher, proj := sgf.NewMatcher(e.Cond), sgf.NewProjector(e.Cond, e.JoinVars)
			for _, f := range db.Relation(e.Cond.Rel).Tuples() {
				if matcher.Matches(f) {
					k := proj.Apply(f).Key()
					if classesAt[k] == nil {
						classesAt[k] = make(map[int32]bool)
					}
					classesAt[k][classOf[ck]] = true
				}
			}
		}

		for k := range heavy {
			if _, ok := got[k]; ok {
				t.Errorf("%s: heavy key %x still has an unsalted group", wl.Name, k)
			}
			requests, spread := 0, 0
			for s := 0; s < saltFactor; s++ {
				sk := string(appendSalt([]byte(k), s))
				g, ok := got[sk]
				delete(got, sk)
				if !ok {
					continue
				}
				if g.requests > 0 {
					spread++
					requests += g.requests
				}
				for c := range classesAt[k] {
					if g.asserts[c] != 1 {
						t.Errorf("%s: heavy key %x, salt %d: class %d asserted %d times, want once", wl.Name, k, s, c, g.asserts[c])
					}
				}
				if len(g.asserts) != len(classesAt[k]) {
					t.Errorf("%s: heavy key %x, salt %d: asserts %v, want exactly the classes %v", wl.Name, k, s, g.asserts, classesAt[k])
				}
			}
			if requests != want[k].requests {
				t.Errorf("%s: heavy key %x: %d requests over its salts, the plain job sends %d", wl.Name, k, requests, want[k].requests)
			}
			if want[k].requests > 1 && spread < 2 {
				t.Errorf("%s: heavy key %x: %d requests in %d group(s), not spread", wl.Name, k, requests, spread)
			}
			delete(want, k)
		}
		// What is left are the light keys: no group gained, lost or changed.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: salting changed the light keys' groups: %d groups, the plain job has %d", wl.Name, len(got), len(want))
		}
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
