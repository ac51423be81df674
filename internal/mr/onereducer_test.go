// This file is an external test package so that it may run whole plans
// through the library, which imports mr.
package mr_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	gumbo "repro"
	"repro/internal/mr"
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
// derived from the records: a split the one-reducer task maps is charged
// the chunk ladder over its key and payload bytes (it writes no header)
// in place of the staged map task's ladder over its headed records and
// of its shuffle task's buffer of those records — and on top of both
// when the job falls back, since the fallback maps and shuffles the
// split again as that map task (mr.InlineSplit.Charges). It runs, at
// widths 1 and 4,
// with skew splitting off and at 0.5 (which cuts a lone reducer's
// partition after its gather):
//
//   - the serving corpus on the serving data under every applicable
//     strategy, as served (scale 1, every job one reducer);
//   - A1–A5, B1, B2 and C3 at 1 000 guard tuples under their Auto
//     strategy, SEQ and HPAR where they apply, all at r = 1;
//   - the corpus's disjunctions under SEQ and HPAR at a scale whose
//     allocation the guard jobs' inputs already pass, so they run
//     staged, while the union or filter job — which reads only produced
//     relations and is predicted to have one reducer — passes it part
//     way through its splits and goes staged, every split mapped again.
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

	var oneReducer, producedOne, cutOne, stoppedEarly int
	var fallbackBytes int64 // charged by the tight suites' fallbacks for splits mapped twice
	for _, s := range suites {
		q := gumbo.MustParse(s.src)
		for _, width := range []int{1, 4} {
			for _, split := range []float64{0, 0.5} {
				sys := gumbo.New(gumbo.WithScale(s.scale), gumbo.WithHostWorkers(width), gumbo.WithSkewSplit(split))
				for _, strat := range s.strategies {
					plan, err := sys.Plan(q, s.db, strat)
					if err != nil {
						continue // the strategy does not apply
					}
					name := fmt.Sprintf("%s %s width %d split %v", s.name, strat, width, split)
					var mu sync.Mutex
					bare, stagedBytes := map[int]int64{}, map[int]int64{} // per job, over the splits mapped inline
					mapped := map[int]int{}                               // per job, the splits mapped inline
					staged := runShape(t, sys, plan, s.db, true, nil)
					one := runShape(t, sys, plan, s.db, false, func(job int, split mr.InlineSplit) {
						b, headed, encoded := split.Charges()
						mu.Lock()
						bare[job] += b
						stagedBytes[job] += headed + encoded
						mapped[job]++
						mu.Unlock()
					})
					want := staged.res.Mem
					for job, b := range bare {
						want.ChargedBytes += b
						if one.res.JobStats[job].Reducers == 1 {
							want.ChargedBytes -= stagedBytes[job]
						} else if s.scale == tight {
							fallbackBytes += b
						}
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
					if one.snap.ShuffleTasksTotal == 0 {
						oneReducer++
					}
					for job, st := range one.res.JobStats {
						po := producedOnly(st, s.db)
						switch {
						case st.Reducers == 1 && po && one.snap.ShuffleTasksTotal == 0:
							producedOne++
						case st.Reducers == 1 && st.SplitReduceTasks > 0 && one.snap.ShuffleTasksTotal == 0:
							cutOne++
						case st.Reducers > 1 && po && mapped[job] > 0 && mapped[job] < st.MapTasks:
							stoppedEarly++ // fell back before its last split
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs all one-reducer, %d produced-only one-reducer jobs, %d cut at r = 1, %d stopped early (%d bytes charged for splits mapped twice)",
		oneReducer, producedOne, cutOne, stoppedEarly, fallbackBytes)
	if oneReducer == 0 || producedOne == 0 || cutOne == 0 || stoppedEarly == 0 {
		t.Errorf("a shape the test must cover did not occur")
	}
}
