package mr

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relation"
)

// identityJob copies relation in to relation out through a full
// map/shuffle/reduce pass.
func identityJob(name, in, out string, arity int) *Job {
	return &Job{
		Name:    name,
		Inputs:  []string{in},
		Outputs: map[string]int{out: arity},
		Mapper: MapperFunc(func(input string, id int, t relation.Tuple, emit *Emitter) {
			var kb [32]byte
			emitInt(emit, t.AppendKey(kb[:0]), int64(id))
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, o *Output) {
			o.Add(out, relation.TupleFromKeyBytes(key))
		}),
	}
}

// unionJob unions the tuples of ins into out.
func unionJob(name string, ins []string, out string, arity int) *Job {
	return &Job{
		Name:    name,
		Inputs:  ins,
		Outputs: map[string]int{out: arity},
		Mapper: MapperFunc(func(input string, id int, t relation.Tuple, emit *Emitter) {
			var kb [32]byte
			emitInt(emit, t.AppendKey(kb[:0]), int64(id))
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, o *Output) {
			o.Add(out, relation.TupleFromKeyBytes(key))
		}),
	}
}

// diamondProgram builds a 3-round program with parallelizable middles:
//
//	semijoin(R,S) → Z;  Z → W;  Z → V;  W ∪ V → F;  semijoin2(R2,S2) → Z2
//
// Jobs 1, 2 and 4 are pairwise independent once job 0 finishes.
func diamondProgram() (*Program, *relation.Database) {
	db := testDB()
	var tuples []relation.Tuple
	for i := int64(0); i < 300; i++ {
		tuples = append(tuples, tup(i, i%13))
	}
	db.Put(relation.FromTuples("R2", 2, tuples))
	db.Put(relation.FromTuples("S2", 1, []relation.Tuple{tup(0), tup(4), tup(7)}))

	sj2 := semijoinJob(true)
	sj2.Name = "semijoin2"
	sj2.Inputs = []string{"R2", "S2"}
	sj2.Outputs = map[string]int{"Z2": 2}

	p := &Program{Jobs: []*Job{
		semijoinJob(false),
		identityJob("left", "Z", "W", 2),
		identityJob("right", "Z", "V", 2),
		unionJob("join", []string{"W", "V"}, "F", 2),
		sj2,
	}}
	return p, db
}

// programSignature captures everything observable about a run: output
// database insertion order, full relation contents, and deep per-job
// stats.
func programSignature(t *testing.T, outs *relation.Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range outs.Names() {
		sb.WriteString(outs.Relation(name).Dump())
	}
	return sb.String()
}

// TestRunProgramDeterminismAcrossWorkers is the scheduler's core
// contract: outputs and per-job stats of a multi-round plan are
// bit-for-bit identical at every width of the unified worker pool, from
// strictly sequential to all cores.
func TestRunProgramDeterminismAcrossWorkers(t *testing.T) {
	p, db := diamondProgram()

	widths := []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} // 0 = GOMAXPROCS
	var baseSig string
	var baseStats []JobStats
	for _, w := range widths {
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = w
		outs, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(stats) != len(p.Jobs) {
			t.Fatalf("workers=%d: %d stats for %d jobs", w, len(stats), len(p.Jobs))
		}
		for i, st := range stats {
			if st.Name != p.Jobs[i].Name {
				t.Fatalf("workers=%d: stats[%d] = %s, want declared order %s",
					w, i, st.Name, p.Jobs[i].Name)
			}
		}
		sig := programSignature(t, outs)
		if baseSig == "" {
			baseSig, baseStats = sig, stats
			continue
		}
		if sig != baseSig {
			t.Errorf("workers=%d: outputs differ from base run", w)
		}
		if !reflect.DeepEqual(stats, baseStats) {
			t.Errorf("workers=%d: stats differ:\n%+v\nvs\n%+v", w, stats, baseStats)
		}
	}
}

// TestRunProgramMatchesSequentialOracle is the differential contract of
// the pipelined scheduler: outputs (content and iteration order) and
// deep per-job stats at several pool widths are bit-for-bit identical
// to runSequential, the whole-job-at-a-time reference schedule.
func TestRunProgramMatchesSequentialOracle(t *testing.T) {
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p, db := diamondProgram()
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = w

		working := relation.NewDatabase()
		for _, r := range db.Relations() {
			working.Put(r)
		}
		wantOuts, wantStats, err := e.runSequential(p, working)
		if err != nil {
			t.Fatal(err)
		}

		outs, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := programSignature(t, outs), programSignature(t, wantOuts); got != want {
			t.Errorf("workers=%d: pipelined outputs differ from sequential oracle", w)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("workers=%d: pipelined stats differ from sequential oracle:\n%+v\nvs\n%+v",
				w, stats, wantStats)
		}
		if !reflect.DeepEqual(outs.Names(), wantOuts.Names()) {
			t.Errorf("workers=%d: output database order differs: %v vs %v", w, outs.Names(), wantOuts.Names())
		}
	}
}

// TestRunProgramJobsOverlap proves dependency-independent jobs really
// run concurrently: two independent jobs whose mappers rendezvous can
// only both reach the barrier if the scheduler overlaps them.
func TestRunProgramJobsOverlap(t *testing.T) {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("A", 1, []relation.Tuple{tup(1)}))
	db.Put(relation.FromTuples("B", 1, []relation.Tuple{tup(2)}))

	started := make(chan string, 2)
	release := make(chan struct{})
	gated := func(name, in, out string) *Job {
		var once sync.Once
		j := identityJob(name, in, out, 1)
		inner := j.Mapper
		j.Mapper = MapperFunc(func(input string, id int, tp relation.Tuple, emit *Emitter) {
			once.Do(func() {
				started <- name
				select {
				case <-release:
				case <-time.After(10 * time.Second):
				}
			})
			inner.Map(input, id, tp, emit)
		})
		return j
	}
	p := &Program{Jobs: []*Job{gated("ja", "A", "OutA"), gated("jb", "B", "OutB")}}

	e := newTestEngine(cost.Default())
	e.cfg.Workers = 2 // two pool workers: both jobs' map tasks can run at once
	done := make(chan error, 1)
	go func() {
		_, _, _, err := e.Run(context.Background(), p, db, RunOptions{})
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("independent jobs did not overlap: scheduler is sequential")
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunProgramRespectsDependencies checks a dependent job never starts
// before its producer publishes: the producer's merge hands each
// consumer its output relation, never a partial one.
func TestRunProgramRespectsDependencies(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		p, db := diamondProgram()
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = 8
		outs, _, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// F = W ∪ V = Z ∪ Z = Z.
		if !outs.Relation("F").Equal(outs.Relation("Z").Rename("F")) {
			t.Fatalf("iter %d: F != Z", iter)
		}
	}
}

// TestRunProgramErrorDeterministic: with several independently failing
// jobs the reported error belongs to the lowest-indexed one, regardless
// of goroutine scheduling, and completed jobs still report stats.
func TestRunProgramErrorDeterministic(t *testing.T) {
	broken := func(name, out string) *Job {
		return &Job{Name: name, Inputs: []string{"R"}, Outputs: map[string]int{out: 2}}
	}
	for iter := 0; iter < 20; iter++ {
		p := &Program{Jobs: []*Job{
			semijoinJob(false),
			broken("broken1", "B1"),
			broken("broken2", "B2"),
		}}
		e := newTestEngine(cost.Default())
		e.cfg.Workers = 4
		_, stats, _, err := e.Run(context.Background(), p, testDB(), RunOptions{})
		if err == nil {
			t.Fatal("broken program succeeded")
		}
		if !strings.Contains(err.Error(), "broken1") {
			t.Fatalf("iter %d: err = %v, want lowest-indexed job broken1", iter, err)
		}
		for _, st := range stats {
			if st.Name == "broken1" || st.Name == "broken2" {
				t.Fatalf("iter %d: failed job reported stats", iter)
			}
		}
	}
}

// TestConcurrentRunJobShared exercises the Engine doc-comment claim
// under the race detector: concurrent one-job runs over one shared
// database are safe and produce the sequential results.
func TestConcurrentRunJobShared(t *testing.T) {
	db := testDB()
	e := newTestEngine(cost.Default())
	want, wantStats, err := runJob(context.Background(), e, semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	outs := make([]*relation.Database, goroutines)
	stats := make([]JobStats, goroutines)
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			outs[g], stats[g], errs[g] = runJob(context.Background(), e, semijoinJob(false), db)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !outs[g].Relation("Z").Equal(want.Relation("Z")) {
			t.Errorf("goroutine %d: output differs", g)
		}
		if !reflect.DeepEqual(stats[g], wantStats) {
			t.Errorf("goroutine %d: stats differ", g)
		}
	}
}

// TestConcurrentRunProgramShared runs two whole programs concurrently
// against one shared base database (race-detector coverage for the
// scheduler's own bookkeeping).
func TestConcurrentRunProgramShared(t *testing.T) {
	p1, db := diamondProgram()
	p2, _ := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 4
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for g, p := range []*Program{p1, p2} {
		go func(g int, p *Program) {
			defer wg.Done()
			_, _, _, errs[g] = e.Run(context.Background(), p, db, RunOptions{})
		}(g, p)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("program %d: %v", g, err)
		}
	}
}

// TestRunProgramEmpty covers the zero-job edge.
func TestRunProgramEmpty(t *testing.T) {
	e := newTestEngine(cost.Default())
	e.cfg.Workers = 4
	outs, stats, _, err := e.Run(context.Background(), &Program{}, testDB(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 || len(outs.Names()) != 0 {
		t.Errorf("empty program produced %d stats, %d outputs", len(stats), len(outs.Names()))
	}
}

// TestRunProgramPipelinesAcrossJobBarrier proves scheduling is
// partition-granular, not job-granular: a downstream job's map tasks
// over a *base* input run while the upstream job producing its other
// input is still in its map phase. Under the whole-job barriered
// scheduler this program deadlocks until the 10s safety timeout (the
// downstream job would not start before the upstream finished); under
// the pipelined scheduler the base-input map task runs immediately and
// releases the upstream mapper.
func TestRunProgramPipelinesAcrossJobBarrier(t *testing.T) {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("A", 1, []relation.Tuple{tup(1), tup(2)}))
	db.Put(relation.FromTuples("B", 1, []relation.Tuple{tup(3), tup(4)}))

	bStarted := make(chan struct{})
	var bOnce sync.Once

	// Upstream: A → Z, but its mapper blocks until downstream's B map
	// task has demonstrably started.
	upstream := identityJob("up", "A", "Z", 1)
	innerUp := upstream.Mapper
	upstream.Mapper = MapperFunc(func(input string, id int, tp relation.Tuple, emit *Emitter) {
		select {
		case <-bStarted:
		case <-time.After(10 * time.Second):
			// Barrier scheduler would hang here; fall through so the
			// test fails on the elapsed-time assertion, not a deadlock.
		}
		innerUp.Map(input, id, tp, emit)
	})

	// Downstream: reads base B and produced Z.
	downstream := unionJob("down", []string{"B", "Z"}, "W", 1)
	innerDown := downstream.Mapper
	downstream.Mapper = MapperFunc(func(input string, id int, tp relation.Tuple, emit *Emitter) {
		if input == "B" {
			bOnce.Do(func() { close(bStarted) })
		}
		innerDown.Map(input, id, tp, emit)
	})

	p := &Program{Jobs: []*Job{upstream, downstream}}
	e := newTestEngine(cost.Default())
	e.cfg.Workers = 2
	start := time.Now()
	outs, _, _, err := e.Run(context.Background(), p, db, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("downstream base-input map did not overlap upstream (took %v): scheduling is job-granular", elapsed)
	}
	// W = B ∪ Z = {3,4} ∪ {1,2}.
	want := relation.FromTuples("W", 1, []relation.Tuple{tup(1), tup(2), tup(3), tup(4)})
	if !outs.Relation("W").Equal(want) {
		t.Errorf("W = %s, want %s", outs.Relation("W").Dump(), want.Dump())
	}
}

// TestProgramReadSets pins the relation-granular edges the scheduler
// wires: per job, per input, the producer index or -1 for base.
func TestProgramReadSets(t *testing.T) {
	p, _ := diamondProgram()
	got := p.ReadSets()
	want := [][]int{
		{-1, -1}, // semijoin: R, S base
		{0},      // left: Z from job 0
		{0},      // right: Z from job 0
		{1, 2},   // join: W from job 1, V from job 2
		{-1, -1}, // semijoin2: R2, S2 base
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadSets = %v, want %v", got, want)
	}
}
