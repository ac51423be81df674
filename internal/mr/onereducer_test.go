// This file is an external test package so that it may run whole plans
// through the library, which imports mr.
package mr_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	gumbo "repro"
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/workload"
)

// servingCorpus is the serving benchmark's query mix over the A1 schema
// (bench/workloads.go's corpus).
var servingCorpus = []string{
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(x) AND U(x) AND V(x);`,
	`Z := SELECT x, y FROM R(x, y, z, w) WHERE NOT (S(x) OR T(y));`,
	`Z := SELECT x FROM R(x, y, z, w) WHERE S(x) OR T(y) OR U(z) OR V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND S(y) AND S(z) AND S(w);`,
	`Z := SELECT z, w FROM R(x, y, z, w) WHERE U(z) AND NOT V(w);`,
}

// shapeRun is one run of a plan in one job shape.
type shapeRun struct {
	res  *gumbo.Result
	snap gumbo.ProgressSnapshot
}

// runShape runs plan on sys, every job staged (mr.FaultHooks.Staged) or
// in the shape the engine picks for it, with inline, when non-nil, seeing
// every split a one-reducer task maps (mr.FaultHooks.Inline).
func runShape(t *testing.T, sys *gumbo.System, plan *gumbo.Plan, db *gumbo.Database, staged bool,
	inline func(job int, split mr.InlineSplit)) shapeRun {
	t.Helper()
	defer mr.SetFaultHooks(mr.FaultHooks{Staged: staged, Inline: inline})()
	var rec gumbo.Progress
	res, err := sys.RunPlanCtx(context.Background(), plan, db, gumbo.RunOptions{Progress: &rec})
	if err != nil {
		t.Fatalf("%v (staged %v): %v", plan, staged, err)
	}
	return shapeRun{res, rec.Snapshot()}
}

// sameOutputs reports the first difference between two runs' output
// databases: relation names in order, then each relation tuple for
// tuple, in iteration order.
func sameOutputs(a, b *gumbo.Database) error {
	if !slices.Equal(a.Names(), b.Names()) {
		return fmt.Errorf("relations %v, want %v", b.Names(), a.Names())
	}
	for _, ra := range a.Relations() {
		rb := b.Relation(ra.Name())
		if ra.Size() != rb.Size() {
			return fmt.Errorf("%s has %d tuples, want %d", ra.Name(), rb.Size(), ra.Size())
		}
		for i := 0; i < ra.Size(); i++ {
			if !slices.Equal(ra.Tuple(i), rb.Tuple(i)) {
				return fmt.Errorf("%s tuple %d is %v, want %v", ra.Name(), i, rb.Tuple(i), ra.Tuple(i))
			}
		}
	}
	return nil
}

// producedOnly reports whether a job reads no relation of db.
func producedOnly(st gumbo.JobStats, db *gumbo.Database) bool {
	for _, p := range st.Parts {
		if db.Has(p.Input) {
			return false
		}
	}
	return true
}

// TestOneReducerMatchesStaged holds the one-reducer job shape — no
// shuffle, the reduce task mapping the splits into its own key set — to
// the staged one (mr.FaultHooks.Staged): outputs equal tuple for tuple,
// JobStats and Metrics deep-equal, and MemStats equal but for the bytes
// the two shapes' arenas and shuffle buffers are charged, which are
// derived from the records: a one-reducer task is charged one chunk
// ladder over its splits' bare records — each record's payload, plus its
// key when it opened its key group (it writes no header, and a key
// once) — in place of each staged map task's ladder over its headed
// records and of its shuffle task's buffer of those records
// (mr.InlineSplit.Charges). Every split is mapped once, and the shape
// follows the measured input: a candidate's one-reducer task — a job
// whose base inputs fit one reducer's allocation — maps all of its
// splits when all its inputs fit it too, at whatever r its intermediate
// bytes then give, and none otherwise; no other job maps a split inline;
// and the record counts Σ JobStats.MapTasks map tasks. It runs, at
// widths 1 and 4, with skew splitting off and at 0.5 (which cuts a
// reducer's partition or range after its gather):
//
//   - the serving corpus on the serving data under every applicable
//     strategy, as served (scale 1, every job one reducer);
//   - A1–A5, B1, B2 and C3 at 1 000 guard tuples under their Auto
//     strategy, SEQ and HPAR where they apply, all at r = 1;
//   - the corpus's disjunctions under SEQ and HPAR at a scale whose
//     allocation the guard jobs' inputs already pass, so they run
//     staged, while the union or filter job — which reads only produced
//     relations and is predicted to have one reducer — finds its inputs
//     past the allocation and is sent staged, no split mapped by its
//     one-reducer task;
//   - the corpus's first query under SEQ and HPAR at a scale whose
//     allocation the guard relation fits but the first semi-join job's
//     intermediate data does not: that job maps inline at r = 2.
//
// It also asserts that each of those shapes occurred.
func TestOneReducerMatchesStaged(t *testing.T) {
	serving := workload.A1().WithSeed(1).Build(2000.0 / workload.PaperGuardTuples)
	type suite struct {
		name       string
		src        string
		db         *gumbo.Database
		scale      float64
		strategies []gumbo.Strategy
	}
	var suites []suite
	for k, src := range servingCorpus {
		suites = append(suites, suite{fmt.Sprintf("S%d", k+1), src, serving, 1, gumbo.Strategies()})
	}
	for _, w := range append(append(workload.AQueries(), workload.BQueries()...), workload.C3()) {
		src := w.Program.String()
		strats := []gumbo.Strategy{gumbo.New().Auto(gumbo.MustParse(src)), gumbo.SEQ, gumbo.HPAR}
		suites = append(suites, suite{w.Name, src, w.WithSeed(1).Build(1000.0 / workload.PaperGuardTuples), 1, strats})
	}
	const tight = 1e-4 // 0.0256 MB a reducer, 0.0128 MB a split
	for _, k := range []int{3, 4} {
		suites = append(suites, suite{fmt.Sprintf("S%d-tight", k), servingCorpus[k-1], serving, tight,
			[]gumbo.Strategy{gumbo.SEQ, gumbo.HPAR}})
	}
	// 0.1024 MB a reducer: R's 0.095 MB fit it, the 0.104–0.106 MB its
	// first semi-join job emits do not.
	suites = append(suites, suite{"S1-past", servingCorpus[0], serving, 4e-4, []gumbo.Strategy{gumbo.SEQ, gumbo.HPAR}})

	var oneReducer, producedOne, cutOne, inlineMore, stagedBySize int
	for _, s := range suites {
		q := gumbo.MustParse(s.src)
		cfg := cost.Default().Scaled(s.scale)
		for _, width := range []int{1, 4} {
			for _, split := range []float64{0, 0.5} {
				sys := gumbo.New(gumbo.WithScale(s.scale), gumbo.WithHostWorkers(width), gumbo.WithSkewSplit(split))
				for _, strat := range s.strategies {
					plan, err := sys.Plan(q, s.db, strat)
					if err != nil {
						continue // the strategy does not apply
					}
					// A Pig job's r follows its input, so no job of PPAR is
					// a candidate; Hive's inflate their intermediate data.
					inflate, candidates := 1.0, strat != gumbo.PPAR
					if strat == gumbo.HPAR || strat == gumbo.HPARS {
						inflate = baselines.HiveKnobs().Inflate
					}
					name := fmt.Sprintf("%s %s width %d split %v", s.name, strat, width, split)
					var mu sync.Mutex
					bare, stagedBytes := map[int][]int{}, map[int]int64{} // per job, over the splits mapped inline
					mapped := map[int]int{}                               // per job, the splits mapped inline
					staged := runShape(t, sys, plan, s.db, true, nil)
					one := runShape(t, sys, plan, s.db, false, func(job int, split mr.InlineSplit) {
						b, headed, encoded := split.Charges()
						mu.Lock()
						bare[job] = append(bare[job], b...)
						stagedBytes[job] += headed + encoded
						mapped[job]++
						mu.Unlock()
					})
					want := staged.res.Mem
					for job, b := range bare {
						want.ChargedBytes += mr.LadderCharge(b) - stagedBytes[job]
					}
					if err := sameOutputs(staged.res.Outputs, one.res.Outputs); err != nil {
						t.Errorf("%s: one-reducer outputs differ from staged: %v", name, err)
					}
					if !reflect.DeepEqual(staged.res.JobStats, one.res.JobStats) {
						t.Errorf("%s: JobStats differ:\nstaged %+v\n   one %+v", name, staged.res.JobStats, one.res.JobStats)
					}
					if one.res.Mem != want {
						t.Errorf("%s: MemStats %+v, want %+v (staged %+v)", name, one.res.Mem, want, staged.res.Mem)
					}
					if !reflect.DeepEqual(staged.res.Metrics, one.res.Metrics) {
						t.Errorf("%s: Metrics differ: staged %+v, one %+v", name, staged.res.Metrics, one.res.Metrics)
					}
					if staged.snap.ShuffleTasksTotal != staged.snap.MapTasksTotal {
						t.Errorf("%s: the staged run shuffled %d of %d map tasks", name, staged.snap.ShuffleTasksTotal, staged.snap.MapTasksTotal)
					}
					for _, r := range []shapeRun{staged, one} {
						maps := 0
						for _, st := range r.res.JobStats {
							maps += st.MapTasks
						}
						if r.snap.MapTasksTotal != maps {
							t.Errorf("%s: the record counts %d map tasks, Σ JobStats.MapTasks = %d", name, r.snap.MapTasksTotal, maps)
						}
					}
					if one.snap.ShuffleTasksTotal == 0 {
						oneReducer++
					}
					for job, st := range one.res.JobStats {
						var baseMB float64
						for _, p := range st.Parts {
							if s.db.Has(p.Input) {
								baseMB += p.InputMB
							}
						}
						candidate := candidates && cfg.Reducers(baseMB*inflate) == 1
						fits := cfg.Reducers(st.InputMB()*inflate) == 1
						switch n := mapped[job]; {
						case n != 0 && (n != st.MapTasks || !candidate || !fits):
							t.Errorf("%s: job %s mapped %d of its %d splits inline over %v MB of input, want all of a candidate's within one allocation or none",
								name, st.Name, n, st.MapTasks, st.InputMB())
						case n == 0 && candidate && fits:
							t.Errorf("%s: job %s, a candidate within one allocation, mapped no split inline", name, st.Name)
						case n == 0 && candidate:
							stagedBySize++
						case n != 0 && st.Reducers > 1:
							inlineMore++
						case producedOnly(st, s.db) && one.snap.ShuffleTasksTotal == 0:
							producedOne++
						case st.SplitReduceTasks > 0 && one.snap.ShuffleTasksTotal == 0:
							cutOne++
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs all one-reducer, %d produced-only one-reducer jobs, %d cut at r = 1, %d inline past r = 1, %d candidates staged by input size",
		oneReducer, producedOne, cutOne, inlineMore, stagedBySize)
	if oneReducer == 0 || producedOne == 0 || cutOne == 0 || inlineMore == 0 || stagedBySize == 0 {
		t.Errorf("a shape the test must cover did not occur")
	}
}

// TestInlinePastOneReducerMatchesStaged holds a one-reducer task whose
// job measures past one reducer to the staged run. The job's base input
// fits one reducer's allocation, but its mapper emits three records a
// tuple — under the tuple's own key, a shared one, and one hot key — of
// about 3.4 times its input bytes, against an allocation of 1.25 times
// them: the task maps all four splits itself (FaultHooks.Inline sees
// every one, no shuffle task runs), measures r = 3, and reduces the
// three reducer ranges of its reducer-major layout. Outputs, tuple for
// tuple, JobStats and Metrics equal the staged run's at widths 1 and 4,
// with skew splitting off and at 1.5, which cuts the hot key's range
// alone.
func TestInlinePastOneReducerMatchesStaged(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 1000; i++ {
		tuples = append(tuples, relation.Tuple{relation.Int(i), relation.Int(i * 7)})
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	job := &mr.Job{
		Name:    "past",
		Inputs:  []string{"R"},
		Outputs: map[string]int{"Z": 3},
		Mapper: mr.MapperFunc(func(_ int, id int, tu relation.Tuple, emit *mr.Emitter) {
			var kb, pb [16]byte
			payload := binary.AppendUvarint(pb[:0], uint64(id))
			for _, k := range []int64{int64(id % 300), 1000 + int64(id%211), 5000} {
				emit.Emit(relation.Tuple{relation.Int(k)}.AppendKey(kb[:0]), 1, 20, payload)
			}
		}),
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
			_, first := msgs.At(0)
			id, _ := binary.Uvarint(first)
			out.Add("Z", relation.Tuple{relation.TupleFromKeyBytes(key)[0], relation.Int(int64(msgs.Len())), relation.Int(int64(id))})
		}),
	}
	plan := &core.Plan{Name: "past", Strategy: core.StrategySEQ, Jobs: []*mr.Job{job}}
	inputMB := float64(db.Relation("R").Bytes()) / mr.MB
	c := cost.Default()
	c.SplitMB, c.ReducerDataMB = inputMB/4, 1.25*inputMB
	run := func(width int, skew float64, h mr.FaultHooks) (*exec.Result, mr.ProgressSnapshot) {
		defer mr.SetFaultHooks(h)()
		var rec mr.Progress
		res, err := exec.NewRunner(mr.Config{Cost: c, Workers: width, SkewSplit: skew}, cluster.DefaultConfig()).
			Run(context.Background(), plan, db, mr.RunOptions{Progress: &rec})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Snapshot()
	}
	for _, width := range []int{1, 4} {
		for _, skew := range []float64{0, 1.5} {
			name := fmt.Sprintf("width %d split %v", width, skew)
			staged, _ := run(width, skew, mr.FaultHooks{Staged: true})
			var inline atomic.Int64
			one, snap := run(width, skew, mr.FaultHooks{Inline: func(int, mr.InlineSplit) { inline.Add(1) }})
			st := one.JobStats[0]
			if int(inline.Load()) != st.MapTasks || snap.ShuffleTasksTotal != 0 || st.MapTasks < 2 {
				t.Errorf("%s: %d of %d splits mapped inline, %d shuffle tasks: want every split inline and no shuffle",
					name, inline.Load(), st.MapTasks, snap.ShuffleTasksTotal)
			}
			if st.Reducers != 3 {
				t.Errorf("%s: r = %d at %v MB of intermediate data, want 3", name, st.Reducers, st.InterMB())
			}
			var total float64
			for _, mb := range st.ReduceLoadMB {
				total += mb
			}
			heavy := 0
			for _, mb := range st.ReduceLoadMB {
				if mb > 1.5*total/float64(st.Reducers) {
					heavy++
				}
			}
			if heavy != 1 || (skew > 0) != (st.SplitReduceTasks > 0) {
				t.Errorf("%s: %d heavy ranges, %d split reduce tasks: want one range cut when splitting", name, heavy, st.SplitReduceTasks)
			}
			if err := sameOutputs(staged.Outputs, one.Outputs); err != nil {
				t.Errorf("%s: outputs differ from staged: %v", name, err)
			}
			if !reflect.DeepEqual(staged.JobStats, one.JobStats) {
				t.Errorf("%s: JobStats differ:\nstaged %+v\n   one %+v", name, staged.JobStats, one.JobStats)
			}
			if !reflect.DeepEqual(staged.Metrics, one.Metrics) {
				t.Errorf("%s: Metrics differ: staged %+v, one %+v", name, staged.Metrics, one.Metrics)
			}
		}
	}
}
