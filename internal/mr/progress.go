package mr

import "sync/atomic"

// Progress accumulates live task-completion counters for one program
// run: the counters jobrun.go already maintains for its stage joins,
// mirrored into atomics so they can be read without touching the run.
// Totals grow as stages are planned (a job's shuffle-task total is only
// known once its maps finish), so Done can briefly equal Total for a
// stage that will still grow; JobsDone == JobsTotal is the reliable
// completion signal. A Progress observes exactly one run — pass a fresh
// value to each Run call.
//
// All methods are safe for concurrent use; a nil *Progress is a valid
// no-op observer, which is how unobserved runs skip the bookkeeping.
type Progress struct {
	mapDone, mapTotal     atomic.Int64
	shufDone, shufTotal   atomic.Int64
	redDone, redTotal     atomic.Int64
	mergeDone, mergeTotal atomic.Int64
	jobsDone, jobsTotal   atomic.Int64
}

// ProgressSnapshot is a point-in-time copy of a run's task counters.
// Totals for later stages appear as their jobs plan them (see
// Progress); Done never exceeds Total within a stage.
type ProgressSnapshot struct {
	MapTasksDone, MapTasksTotal         int
	ShuffleTasksDone, ShuffleTasksTotal int
	ReduceTasksDone, ReduceTasksTotal   int
	MergeShardsDone, MergeShardsTotal   int
	JobsDone, JobsTotal                 int
}

// Snapshot returns a point-in-time copy of the counters. Each field is
// read atomically; the snapshot as a whole is not a single atomic cut,
// which is fine for its purpose (monotonic progress display).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		MapTasksDone: int(p.mapDone.Load()), MapTasksTotal: int(p.mapTotal.Load()),
		ShuffleTasksDone: int(p.shufDone.Load()), ShuffleTasksTotal: int(p.shufTotal.Load()),
		ReduceTasksDone: int(p.redDone.Load()), ReduceTasksTotal: int(p.redTotal.Load()),
		MergeShardsDone: int(p.mergeDone.Load()), MergeShardsTotal: int(p.mergeTotal.Load()),
		JobsDone: int(p.jobsDone.Load()), JobsTotal: int(p.jobsTotal.Load()),
	}
}

// The increment hooks below are called from jobrun.go's stage
// transitions; each is a no-op on a nil receiver so the unobserved
// path pays a single nil check per stage event.

func (p *Progress) addMapTotal(n int) {
	if p != nil {
		p.mapTotal.Add(int64(n))
	}
}

func (p *Progress) mapTaskDone() {
	if p != nil {
		p.mapDone.Add(1)
	}
}

func (p *Progress) addShuffleTotal(n int) {
	if p != nil {
		p.shufTotal.Add(int64(n))
	}
}

func (p *Progress) shuffleTaskDone() {
	if p != nil {
		p.shufDone.Add(1)
	}
}

func (p *Progress) addReduceTotal(n int) {
	if p != nil {
		p.redTotal.Add(int64(n))
	}
}

func (p *Progress) reduceTaskDone() {
	if p != nil {
		p.redDone.Add(1)
	}
}

func (p *Progress) addMergeTotal(n int) {
	if p != nil {
		p.mergeTotal.Add(int64(n))
	}
}

func (p *Progress) mergeShardDone() {
	if p != nil {
		p.mergeDone.Add(1)
	}
}

func (p *Progress) setJobsTotal(n int) {
	if p != nil {
		p.jobsTotal.Store(int64(n))
	}
}

func (p *Progress) jobDone() {
	if p != nil {
		p.jobsDone.Add(1)
	}
}
