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
		Reducers: 1,
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
