package mr

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relation"
)

// countTaskGrants runs the program once, uninstrumented except for a
// counting fault hook, and returns the total number of task grants — a
// deterministic property of the program (every task unit is granted
// exactly once on an uncanceled run, at any width).
func countTaskGrants(t *testing.T, width int) int {
	t.Helper()
	grants, restore := countGrants()
	defer restore()
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = width
	if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{}); err != nil {
		t.Fatalf("width %d: clean run failed: %v", width, err)
	}
	return int(grants.Load())
}

// oracleStats runs the golden program through runSequential — the
// engine's reference schedule — and indexes its per-job stats by name.
func oracleStats(t *testing.T) map[string]JobStats {
	t.Helper()
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 1
	working := relation.NewDatabase()
	for _, r := range db.Relations() {
		working.Put(r)
	}
	_, stats, err := e.runSequential(p, working)
	if err != nil {
		t.Fatalf("oracle run failed: %v", err)
	}
	oracle := make(map[string]JobStats, len(stats))
	for _, st := range stats {
		oracle[st.Name] = st
	}
	return oracle
}

// waitGoroutinesSettle waits for the goroutine count to return to (at
// most) baseline: the leak gate for the pool's worker and watcher
// goroutines. The runtime needs a beat to reap exited goroutines, so
// poll rather than assert instantly.
func waitGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
}

// dbSignature captures everything about the input database a canceled
// run could corrupt: relation names, arities and exact tuple order.
func dbSignature(db *relation.Database) string {
	sig := ""
	for _, name := range db.Names() {
		sig += db.Relation(name).Dump()
	}
	return sig
}

// TestCancelAtEveryTaskBoundary is the cancellation differential suite:
// for pool widths 1, 4 and GOMAXPROCS it cancels the golden diamond
// program at every task-grant index k and asserts, for each k:
//
//   - the run returns an error satisfying errors.Is(context.Canceled)
//     with nil outputs, nil stats and nil timings: a run completes or
//     fails whole, so nothing of a canceled one escapes;
//   - task grants after the cancel are strictly bounded: at most one
//     per worker already past its context poll, so ≤ width;
//   - the input database is untouched.
//
// Afterwards a clean re-run must still match the oracle exactly (no
// cross-run pollution) and the goroutine count must settle back to the
// pre-test baseline (no leaked worker or watcher goroutines).
func TestCancelAtEveryTaskBoundary(t *testing.T) {
	oracle := oracleStats(t)
	baseline := runtime.NumGoroutine()
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, width := range widths {
		if width < 1 || seen[width] {
			continue
		}
		seen[width] = true
		grantsTotal := countTaskGrants(t, width)
		if grantsTotal == 0 {
			t.Fatalf("width %d: program granted no tasks", width)
		}
		for k := 0; k < grantsTotal; k++ {
			// late counts only grants whose hook starts after cancel() has
			// returned: a worker descheduled between being numbered k and
			// canceling lets its siblings be granted tasks legitimately.
			var canceled atomic.Bool
			var late atomic.Int64
			ctx, cancel := context.WithCancel(context.Background())
			restore := SetFaultHooks(FaultHooks{Grant: func(_ context.Context, n int) {
				if canceled.Load() {
					late.Add(1)
				}
				if n == k {
					cancel()
					canceled.Store(true)
				}
			}})

			p, db := diamondProgram()
			before := dbSignature(db)
			e := newTestEngine(cost.Default().Scaled(0.001))
			e.cfg.Workers = width
			outs, stats, timings, err := e.Run(ctx, p, db, RunOptions{})
			restore()
			cancel()

			if err == nil {
				t.Fatalf("width %d cancel@%d: run returned no error", width, k)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("width %d cancel@%d: error %v does not wrap context.Canceled", width, k, err)
			}
			if outs != nil || stats != nil || timings != nil {
				t.Fatalf("width %d cancel@%d: canceled run returned outputs %v, stats %v, timings %v; want all nil",
					width, k, outs, stats, timings)
			}
			if g := int(late.Load()); g > width {
				t.Errorf("width %d cancel@%d: %d tasks granted after the cancel, want ≤ %d", width, k, g, width)
			}
			if after := dbSignature(db); after != before {
				t.Fatalf("width %d cancel@%d: canceled run mutated the input database", width, k)
			}
		}
		// Clean re-run after the cancel storm: nothing leaked into
		// process-global state.
		p, db := diamondProgram()
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = width
		_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatalf("width %d: clean re-run failed: %v", width, err)
		}
		if len(stats) != len(oracle) {
			t.Fatalf("width %d: clean re-run completed %d jobs, oracle has %d", width, len(stats), len(oracle))
		}
		for _, st := range stats {
			if !statsEqual(st, oracle[st.Name]) {
				t.Errorf("width %d: clean re-run job %s stats diverge from oracle", width, st.Name)
			}
		}
	}
	waitGoroutinesSettle(t, baseline)
}

// TestCancelBeforeStart pins the fast path: a context canceled before
// the run begins grants zero tasks and returns context.Canceled with
// nil outputs, stats and timings.
func TestCancelBeforeStart(t *testing.T) {
	grants, restore := countGrants()
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	outs, stats, timings, err := e.Run(ctx, p, db, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: err = %v, want context.Canceled", err)
	}
	if outs != nil || stats != nil || timings != nil {
		t.Fatalf("pre-canceled run returned outputs %v, stats %v, timings %v; want all nil", outs, stats, timings)
	}
	if g := grants.Load(); g != 0 {
		t.Fatalf("pre-canceled run granted %d tasks, want 0", g)
	}
}

// TestRunJobCancel checks a one-job program honors its context:
// canceled mid-run it returns a nil database and an error wrapping
// context.Canceled, leaving the input untouched.
func TestRunJobCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := SetFaultHooks(FaultHooks{Grant: func(_ context.Context, n int) {
		if n == 1 {
			cancel()
		}
	}})
	defer restore()
	db := testDB()
	before := dbSignature(db)
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 2
	outs, _, err := runJob(ctx, e, semijoinJob(false), db)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if outs != nil {
		t.Fatalf("canceled run returned an output database")
	}
	if dbSignature(db) != before {
		t.Fatalf("canceled run mutated the input database")
	}
}

// TestDeadlineExceeded checks an expired deadline surfaces as
// context.DeadlineExceeded with nil outputs, stats and timings: a fault
// hook parks the first task until the deadline has passed, so the run
// cannot finish in time.
func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	restore := SetFaultHooks(FaultHooks{Grant: func(_ context.Context, n int) {
		if n == 0 {
			<-ctx.Done() // park until the deadline fires
		}
	}})
	defer restore()
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 4
	outs, stats, timings, err := e.Run(ctx, p, db, RunOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run err = %v, want context.DeadlineExceeded", err)
	}
	if outs != nil || stats != nil || timings != nil {
		t.Fatalf("deadline run returned outputs %v, stats %v, timings %v; want all nil", outs, stats, timings)
	}
}

// pastOneProgram is a chain of two identity jobs, R2 → G → E, under an
// allocation half R2's size. The first runs staged from the start; the
// second reads only G, so it is predicted to have one reducer, but its
// one task finds G past the allocation, maps no split, and spawns G's
// six or so splits as map tasks: it runs staged too.
func pastOneProgram() (*Program, *relation.Database, cost.Config) {
	_, db := diamondProgram()
	inputMB := mbOf(db.Relation("R2").Bytes())
	c := cost.Default()
	c.SplitMB, c.ReducerDataMB = inputMB/6, inputMB/2
	return &Program{Jobs: []*Job{identityJob("grow", "R2", "G", 2), identityJob("past", "G", "E", 2)}}, db, c
}

// TestProgressCounters checks the task record's three folds, in both
// shapes of the diamond program's jobs and on a candidate its one task
// sends staged by its input size (pastOneProgram). After an uncanceled run every stage's
// done count equals its total and the totals agree with the run's own
// stats (map tasks — each split counted once, whether a one-reducer task
// or a map task mapped it — reduce tasks, one merge shard per declared
// output, one job per job), and FaultHooks.Inline saw every split of a
// job with one reducer that runs unstaged and none of any other. Shuffle
// tasks are one per map task of a job that runs staged
// (FaultHooks.Staged, spilling, or past one reducer) and none when, as
// in the diamond by default, every job has one reducer and its reduce
// task maps its splits. The
// JobTimings Run returns and CriticalPath().Work sum the same spans, so
// they agree exactly; and the span lies within the work. A canceled run
// returns nil stats and nil timings, while its record still counts what
// ran: its snapshot never reports done > total. The record is a
// zero-value Progress, as the server passes.
func TestProgressCounters(t *testing.T) {
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 4
	var idle Progress
	if snap, cp := idle.Snapshot(), idle.CriticalPath(); snap != (ProgressSnapshot{}) || cp != (CriticalPath{}) {
		t.Errorf("unused Progress reports %+v, %+v", snap, cp)
	}
	past, pastDB, pastCost := pastOneProgram()
	pastEngine := newTestEngine(pastCost)
	pastEngine.cfg.Workers = 4
	diamondMaps := 0
	for _, run := range []struct {
		name   string
		p      *Program
		db     *relation.Database
		e      *Engine
		staged bool
	}{
		{"diamond", p, db, e, false},
		{"diamond staged", p, db, e, true},
		{"past one allocation", past, pastDB, pastEngine, false},
	} {
		inline := make([]atomic.Int64, len(run.p.Jobs)) // per job, the splits its one-reducer task mapped
		restore := SetFaultHooks(FaultHooks{Staged: run.staged, Inline: func(job int, _ InlineSplit) { inline[job].Add(1) }})
		var prog Progress
		_, stats, timings, err := run.e.Run(context.Background(), run.p, run.db, RunOptions{Progress: &prog})
		restore()
		if err != nil {
			t.Fatalf("observed run failed: %v", err)
		}
		snap := prog.Snapshot()
		wantMaps, wantShuffles, wantReds, wantMerges := 0, 0, 0, 0
		for i, st := range stats {
			// A one-reducer task counts as the splits it mapped: all of
			// its job's when its inputs fit one reducer, none when they
			// pass it and it sends the job staged. A spilling run runs
			// every job staged.
			wantMaps += st.MapTasks
			wantInline := st.MapTasks
			if run.staged || run.e.cfg.SpillThreshold > 0 || run.p == past {
				wantInline = 0
				wantShuffles += st.MapTasks
			}
			if n := int(inline[i].Load()); n != wantInline {
				t.Errorf("%s: job %s mapped %d splits inline, want %d", run.name, st.Name, n, wantInline)
			}
			wantReds += st.ReduceTasks
			wantMerges += len(run.p.Jobs[i].Outputs)
		}
		if run.p == p {
			diamondMaps = wantMaps
		}
		// A spilling run predicts no job to have one reducer.
		if run.p == past && run.e.cfg.SpillThreshold <= 0 && !slices.ContainsFunc(prog.spans, func(s span) bool { return s.job == 1 && s.part < 0 }) {
			t.Errorf("the job past one allocation ran no one-reducer task")
		}
		if snap.MapTasksDone != wantMaps || snap.MapTasksTotal != wantMaps {
			t.Errorf("%s: map counters %d/%d, want %d/%d", run.name, snap.MapTasksDone, snap.MapTasksTotal, wantMaps, wantMaps)
		}
		if snap.ShuffleTasksDone != wantShuffles || snap.ShuffleTasksTotal != wantShuffles {
			t.Errorf("%s: shuffle counters %d/%d, want %d/%d",
				run.name, snap.ShuffleTasksDone, snap.ShuffleTasksTotal, wantShuffles, wantShuffles)
		}
		if snap.ReduceTasksDone != wantReds || snap.ReduceTasksTotal != wantReds {
			t.Errorf("%s: reduce counters %d/%d, want %d/%d", run.name, snap.ReduceTasksDone, snap.ReduceTasksTotal, wantReds, wantReds)
		}
		if snap.MergeShardsDone != wantMerges || snap.MergeShardsTotal != wantMerges {
			t.Errorf("%s: merge counters %d/%d, want %d/%d", run.name, snap.MergeShardsDone, snap.MergeShardsTotal, wantMerges, wantMerges)
		}
		if snap.JobsDone != len(run.p.Jobs) || snap.JobsTotal != len(run.p.Jobs) {
			t.Errorf("%s: job counters %d/%d, want %d/%d", run.name, snap.JobsDone, snap.JobsTotal, len(run.p.Jobs), len(run.p.Jobs))
		}
		var work float64
		for i, tm := range timings {
			if tm.Name != stats[i].Name {
				t.Errorf("timing %d is job %q, stats name %q", i, tm.Name, stats[i].Name)
			}
			if tm.SplitSeconds > tm.ReduceSeconds {
				t.Errorf("job %s: SplitSeconds %v > ReduceSeconds %v", tm.Name, tm.SplitSeconds, tm.ReduceSeconds)
			}
			work += tm.TotalSeconds()
		}
		cp := prog.CriticalPath()
		if cp.Work != work {
			t.Errorf("%s: CriticalPath().Work = %v, Σ JobTiming.TotalSeconds() = %v: two sums of one record", run.name, cp.Work, work)
		}
		if cp.Seconds <= 0 || cp.Seconds > cp.Work*(1+1e-9) {
			t.Errorf("%s: span %v s outside (0, work %v s]", run.name, cp.Seconds, cp.Work)
		}
	}

	// Canceled run: the snapshot must stay within the full-run totals
	// and never report done > total within a stage.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := SetFaultHooks(FaultHooks{Grant: func(_ context.Context, n int) {
		if n == diamondMaps/2 {
			cancel()
		}
	}})
	defer restore()
	p2, db2 := diamondProgram()
	var prog2 Progress
	_, stats2, timings2, err := e.Run(ctx, p2, db2, RunOptions{Progress: &prog2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled observed run err = %v, want context.Canceled", err)
	}
	s2 := prog2.Snapshot()
	if s2.MapTasksDone > s2.MapTasksTotal || s2.ShuffleTasksDone > s2.ShuffleTasksTotal ||
		s2.ReduceTasksDone > s2.ReduceTasksTotal || s2.MergeShardsDone > s2.MergeShardsTotal ||
		s2.JobsDone > s2.JobsTotal {
		t.Errorf("canceled snapshot has done > total: %+v", s2)
	}
	if s2.JobsTotal != len(p.Jobs) {
		t.Errorf("canceled snapshot JobsTotal = %d, want %d", s2.JobsTotal, len(p.Jobs))
	}
	if stats2 != nil || timings2 != nil {
		t.Fatalf("canceled run returned stats %v and timings %v, want both nil", stats2, timings2)
	}
	if s2.MapTasksDone == 0 {
		t.Errorf("canceled snapshot counts no finished map task: %+v", s2)
	}
}

// TestPoolCancelQuiesces drives runTasks directly: canceling while
// tasks are queued must stop the pool promptly (bounded further
// grants), return ctx.Err(), and leave no goroutines behind.
func TestPoolCancelQuiesces(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, width := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		ctx, cancel := context.WithCancel(context.Background())
		// ran counts only tasks that start after the cancel: siblings
		// legitimately steal and run queued tasks while the seed is still
		// spawning.
		var canceled atomic.Bool
		var ran atomic.Int64
		err := NewEngine(Config{}).runTasks(ctx, width, new(Progress), func(c *poolCtx) {
			for i := 0; i < 64; i++ {
				c.spawn(taskLabel{}, func(c *poolCtx) {
					if canceled.Load() {
						ran.Add(1)
					}
				})
			}
			cancel()
			canceled.Store(true)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: runTasks err = %v, want context.Canceled", width, err)
		}
		// The seed canceled before returning: only tasks granted to
		// workers already past their poll may still run.
		if n := ran.Load(); n > int64(width) {
			t.Errorf("width %d: %d queued tasks ran after cancel, want ≤ %d", width, n, width)
		}
		cancel()
	}
	waitGoroutinesSettle(t, baseline)
}

// statsEqual compares two JobStats deeply (reflect-free wrapper kept
// for call-site readability).
func statsEqual(a, b JobStats) bool {
	if a.Name != b.Name || a.OutputMB != b.OutputMB || a.MapTasks != b.MapTasks ||
		a.ReduceTasks != b.ReduceTasks || a.Reducers != b.Reducers ||
		len(a.Parts) != len(b.Parts) || len(a.ReduceLoadMB) != len(b.ReduceLoadMB) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	for i := range a.ReduceLoadMB {
		if a.ReduceLoadMB[i] != b.ReduceLoadMB[i] {
			return false
		}
	}
	return true
}
