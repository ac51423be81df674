package mr

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relation"
)

// sleepJob maps each tuple of its inputs — one map task per tuple, under
// splitEveryTuple — after calling nap, which sleeps, and copies the
// tuples into out through one reducer.
func sleepJob(name string, ins []string, out string, nap func(input string)) *Job {
	return &Job{
		Name:     name,
		Inputs:   ins,
		Outputs:  map[string]int{out: 1},
		reducers: 1,
		Mapper: MapperFunc(func(input string, id int, t relation.Tuple, emit *Emitter) {
			nap(input)
			var kb [32]byte
			emitInt(emit, t.AppendKey(kb[:0]), int64(id))
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, o *Output) {
			o.Add(out, relation.TupleFromKeyBytes(key))
		}),
	}
}

// splitEveryTuple is a cost configuration under which every input
// tuple is a map task of its own.
func splitEveryTuple() cost.Config {
	c := cost.Default()
	c.SplitMB = 1e-12
	return c
}

func tuples(n int) []relation.Tuple {
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = tup(int64(i))
	}
	return ts
}

// TestCriticalPathChainBesideWideJob: a chain of k dependent one-task
// jobs, each mapper sleeping d, runs beside an independent job of 32
// map tasks sleeping d each. The wide job has far more work, but its
// tasks do not depend on one another, so the span is the chain's: at
// least k·d, and at most 2 ms a job more for its shuffle, reduce and
// merge tasks and the timer's slack — at width 1, where every task
// waits its turn, as at width 4.
func TestCriticalPathChainBesideWideJob(t *testing.T) {
	const k, d = 4, 3 * time.Millisecond
	nap := func(string) { time.Sleep(d) }
	for _, width := range []int{1, 4} {
		db := relation.NewDatabase()
		db.Put(relation.FromTuples("C0", 1, tuples(1)))
		db.Put(relation.FromTuples("W", 1, tuples(32)))
		p := &Program{Jobs: []*Job{sleepJob("wide", []string{"W"}, "W2", nap)}}
		for i := 0; i < k; i++ {
			p.Jobs = append(p.Jobs, sleepJob(fmt.Sprintf("chain%d", i), []string{fmt.Sprintf("C%d", i)}, fmt.Sprintf("C%d", i+1), nap))
		}
		e := NewEngine(Config{Cost: splitEveryTuple(), Workers: width})
		var rec Progress
		_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{Progress: &rec})
		if err != nil {
			t.Fatal(err)
		}
		if stats[0].MapTasks != 32 {
			t.Fatalf("wide job ran %d map tasks, want 32", stats[0].MapTasks)
		}
		cp := rec.CriticalPath()
		lo, hi := (k * d).Seconds(), (k*d + k*2*time.Millisecond).Seconds()
		if cp.Seconds < lo || cp.Seconds > hi {
			t.Errorf("width %d: span %.2f ms, want the chain's [%.0f, %.0f] ms (work %.2f ms, along the path %+v)",
				width, 1e3*cp.Seconds, 1e3*lo, 1e3*hi, 1e3*cp.Work, cp.Kinds)
		}
		if cp.Kinds.MapSeconds < lo {
			t.Errorf("width %d: maps add %.2f ms along the path, want ≥ %.0f", width, 1e3*cp.Kinds.MapSeconds, 1e3*lo)
		}
		if minWork := (32 + k) * d; cp.Work < minWork.Seconds() {
			t.Errorf("width %d: work %.2f ms, want ≥ %v", width, 1e3*cp.Work, minWork)
		}
	}
}

// TestCriticalPathLongTaskNotLast: one map task of a job sleeps long
// while 64 short ones of its other input finish after it, so the task
// that ends the map stage — and spawns the shuffle — is a short one.
// The span still runs through the long task: the shuffle waits for
// every map task, not for the one that happened to finish last, which
// is all a fold over spawn edges would see. The long input is the last
// one seeded, so at width 1 its task is popped first; at width 4 the
// other workers steal the short tasks meanwhile.
func TestCriticalPathLongTaskNotLast(t *testing.T) {
	const long, short = 10 * time.Millisecond, 2 * time.Millisecond
	for _, width := range []int{1, 4} {
		db := relation.NewDatabase()
		db.Put(relation.FromTuples("S", 1, tuples(64)))
		db.Put(relation.FromTuples("L", 1, tuples(1)))
		var finished, longRank atomic.Int64
		job := sleepJob("uneven", []string{"S", "L"}, "O", func(input string) {
			if input == "L" {
				time.Sleep(long)
				longRank.Store(finished.Add(1))
				return
			}
			time.Sleep(short)
			finished.Add(1)
		})
		e := NewEngine(Config{Cost: splitEveryTuple(), Workers: width})
		var rec Progress
		if _, _, _, err := e.Run(context.Background(), &Program{Jobs: []*Job{job}}, db, RunOptions{Progress: &rec}); err != nil {
			t.Fatal(err)
		}
		if r := longRank.Load(); r == 65 {
			t.Fatalf("width %d: the long task finished last; the test needs it not to", width)
		}
		if cp := rec.CriticalPath(); cp.Seconds < long.Seconds() || cp.Kinds.MapSeconds < long.Seconds() {
			t.Errorf("width %d: span %.2f ms (maps %.2f ms), want it through the %v task",
				width, 1e3*cp.Seconds, 1e3*cp.Kinds.MapSeconds, long)
		}
	}
}

// TestCriticalPathPieceAfterGather folds a synthetic record of one job
// whose reducer 0 was cut into two pieces: map 1 ms, shuffle 1 ms, the
// gather 5 ms, pieces of 1 and 3 ms, an uncut reducer of 2 ms, merge
// 1 ms. A piece runs only once its partition is gathered and cut, so
// the span is map, shuffle, gather, the 3 ms piece and merge: 11 ms —
// not the 8 ms of chaining the pieces beside the gather. The pieces are
// recorded first, as a piece can finish before its gather's span is.
func TestCriticalPathPieceAfterGather(t *testing.T) {
	var p Progress
	p.begin(&Program{Jobs: []*Job{{Name: "j", Inputs: []string{"R"}, Outputs: map[string]int{"Z": 1}}}})
	ms := int64(time.Millisecond)
	for _, s := range []span{
		{taskLabel{part: 1, kind: kindReduce, split: true}, 1 * ms},
		{taskLabel{part: 2, kind: kindReduce, split: true}, 3 * ms},
		{taskLabel{kind: kindMap}, 1 * ms},
		{taskLabel{kind: kindShuffle}, 1 * ms},
		{taskLabel{kind: kindReduce, split: true}, 5 * ms},
		{taskLabel{index: 1, kind: kindReduce}, 2 * ms},
		{taskLabel{kind: kindMerge}, 1 * ms},
	} {
		p.spans = append(p.spans, s)
	}
	cp := p.CriticalPath()
	want := JobTiming{MapSeconds: 0.001, ShuffleSeconds: 0.001, ReduceSeconds: 0.008, MergeSeconds: 0.001, SplitSeconds: 0.008}
	if cp.Seconds != 0.011 || cp.Kinds != want {
		t.Errorf("CriticalPath() span %v s by kind %+v, want 0.011 s by kind %+v", cp.Seconds, cp.Kinds, want)
	}
}

// TestCriticalPathOneReducer folds a synthetic record of two jobs: "p"
// publishes P after map 2 ms, shuffle 1 ms, reduce 3 ms and merge 1 ms;
// the one-reducer job "one" reads base B and P, and its reduce task maps
// both (map part −1, 2 ms) once the merge that publishes P is done. If r
// stays 1 it then reduces (3 ms) before its merge (1 ms): the span is
// 13 ms. If it falls back, the walk spawns the re-maps of B (9 ms) and P
// (1 ms), which wait for it, and the job goes on staged — shuffle 1 ms,
// reduce 3 ms, merge 1 ms: the span is 23 ms, through the walk and the
// re-map of B.
func TestCriticalPathOneReducer(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, c := range []struct {
		name  string
		spans []span // job "one"'s
		span  float64
		kinds JobTiming
	}{
		{"r = 1", []span{
			{taskLabel{job: 1, kind: kindMerge}, 1 * ms},
			{taskLabel{job: 1, kind: kindReduce}, 3 * ms},
			{taskLabel{job: 1, part: -1, kind: kindMap}, 2 * ms},
		}, 0.013, JobTiming{MapSeconds: 0.004, ShuffleSeconds: 0.001, ReduceSeconds: 0.006, MergeSeconds: 0.002}},
		{"fallback", []span{
			{taskLabel{job: 1, kind: kindMerge}, 1 * ms},
			{taskLabel{job: 1, kind: kindReduce}, 3 * ms},
			{taskLabel{job: 1, kind: kindShuffle}, 1 * ms},
			{taskLabel{job: 1, part: 1, kind: kindMap}, 1 * ms},
			{taskLabel{job: 1, kind: kindMap}, 9 * ms},
			{taskLabel{job: 1, part: -1, kind: kindMap}, 2 * ms},
		}, 0.023, JobTiming{MapSeconds: 0.013, ShuffleSeconds: 0.002, ReduceSeconds: 0.006, MergeSeconds: 0.002}},
	} {
		var p Progress
		p.begin(&Program{Jobs: []*Job{
			{Name: "p", Inputs: []string{"R"}, Outputs: map[string]int{"P": 1}},
			{Name: "one", Inputs: []string{"B", "P"}, Outputs: map[string]int{"Z": 1}},
		}})
		p.spans = append(p.spans,
			span{taskLabel{kind: kindMap}, 2 * ms},
			span{taskLabel{kind: kindShuffle}, 1 * ms},
			span{taskLabel{kind: kindReduce}, 3 * ms},
			span{taskLabel{kind: kindMerge}, 1 * ms})
		p.spans = append(p.spans, c.spans...)
		cp := p.CriticalPath()
		if cp.Seconds != c.span || cp.Kinds != c.kinds {
			t.Errorf("%s: CriticalPath() span %v s by kind %+v, want %v s by kind %+v",
				c.name, cp.Seconds, cp.Kinds, c.span, c.kinds)
		}
	}
}
