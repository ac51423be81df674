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
// splitEveryTuple — after calling nap, and copies the tuples into out
// through one reducer.
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

// sec is ns in seconds, as the task record converts it.
func sec(ns int64) float64 { return float64(ns) / 1e9 }

// TestCriticalPathChainBesideWideJob: a chain of k dependent one-task
// jobs runs beside an independent job of 32 map tasks, the record
// taking every map task as d and every other task as o
// (FaultHooks.Span). The wide job has far more work, but its tasks do
// not depend on one another, so the span is the chain's, exactly
// k·(d + 3o) — each job's map, shuffle, reduce and merge — at width 1,
// where every task waits its turn, as at width 4. The work is every
// task's, summed as JobTiming sums it.
func TestCriticalPathChainBesideWideJob(t *testing.T) {
	const k, d, o = 4, int64(3 * time.Millisecond), int64(10 * time.Microsecond)
	defer SetFaultHooks(FaultHooks{Span: func(l taskLabel) int64 {
		if l.kind == kindMap {
			return d
		}
		return o
	}})()
	for _, width := range []int{1, 4} {
		db := relation.NewDatabase()
		db.Put(relation.FromTuples("C0", 1, tuples(1)))
		db.Put(relation.FromTuples("W", 1, tuples(32)))
		nap := func(string) {}
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
		kinds := JobTiming{MapSeconds: sec(k * d), ShuffleSeconds: sec(k * o), ReduceSeconds: sec(k * o), MergeSeconds: sec(k * o)}
		if cp.Seconds != sec(k*(d+3*o)) || cp.Kinds != kinds {
			t.Errorf("width %d: span %v s by kind %+v, want the chain's %v s by kind %+v",
				width, cp.Seconds, cp.Kinds, sec(k*(d+3*o)), kinds)
		}
		job := func(maps int64) float64 { // a job's work: its maps, as many shuffles, a reduce and a merge
			return JobTiming{MapSeconds: sec(maps * d), ShuffleSeconds: sec(maps * o), ReduceSeconds: sec(o), MergeSeconds: sec(o)}.TotalSeconds()
		}
		work := job(32)
		for i := 0; i < k; i++ {
			work += job(1)
		}
		if cp.Work != work {
			t.Errorf("width %d: work %v s, want %v s", width, cp.Work, work)
		}
	}
}

// TestCriticalPathLongTaskNotLast: one map task of a job sleeps long
// while 64 short ones of its other input finish after it, so the task
// that ends the map stage — and spawns the shuffle — is a short one.
// The sleeps fix that completion order; the record takes the long task
// as long, the short ones as short and every other task as o
// (FaultHooks.Span). The span still runs through the long task, exactly
// long + 3o: the shuffle waits for every map task, not for the one that
// happened to finish last, which is all a fold over spawn edges would
// see. The long input is the last one seeded, so at width 1 its task is
// popped first; at width 4 the other workers steal the short tasks
// meanwhile.
func TestCriticalPathLongTaskNotLast(t *testing.T) {
	const long, short, o = 10 * time.Millisecond, 2 * time.Millisecond, int64(10 * time.Microsecond)
	defer SetFaultHooks(FaultHooks{Span: func(l taskLabel) int64 {
		switch {
		case l.kind != kindMap:
			return o
		case l.part == 1: // L's
			return int64(long)
		}
		return int64(short)
	}})()
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
		kinds := JobTiming{MapSeconds: sec(int64(long)), ShuffleSeconds: sec(o), ReduceSeconds: sec(o), MergeSeconds: sec(o)}
		if cp := rec.CriticalPath(); cp.Seconds != sec(int64(long)+3*o) || cp.Kinds != kinds {
			t.Errorf("width %d: span %v s by kind %+v, want %v s by kind %+v through the %v task",
				width, cp.Seconds, cp.Kinds, sec(int64(long)+3*o), kinds, long)
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
// the job "one", predicted to have one reducer, reads base B and P, and
// its one task (map part −1, 2 ms) runs once the merge that publishes P
// is done. If the inputs fit one reducer's allocation the task maps
// both, then reduces (3 ms) before its merge (1 ms): the span is 13 ms.
// If they pass it, the task only measures them and spawns the map tasks
// of B (9 ms) and P (1 ms), which wait for it, and the job goes on
// staged — shuffle 1 ms, reduce 3 ms, merge 1 ms: the span is 23 ms,
// through the task and the map of B.
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
		{"past one allocation", []span{
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
