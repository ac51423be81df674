package mr

import (
	"sync"
	"time"
)

// Progress is the task record of one program run. The pool times every
// granted task once (run, the engine's one clock) and keeps its span
// under the label its spawner gave it, and counts spawned and finished
// tasks by kind. Live progress (Snapshot), the per-job timings Run
// returns (JobTiming) and the run's work and span (CriticalPath) are
// folds over it. A span is a host measurement outside the determinism
// contract, and includes any stage-join work its task runs as its
// stage's last (mapsDone, shufflesDone, reducesDone, finishJob).
//
// Totals grow as stages are planned (a job's shuffle-task total is only
// known once its maps finish), so Done can briefly equal Total for a
// stage that will still grow; JobsDone == JobsTotal is the reliable
// completion signal. A Progress records exactly one run — pass a fresh
// value to each Run call; the zero value is ready to use. All methods
// are safe for concurrent use.
type Progress struct {
	mu       sync.Mutex
	prog     *Program
	jobs     int // jobs the run schedules
	jobsDone int
	spawned  [numKinds]int
	finished [numKinds]int
	spans    []span
}

// taskKind is what a pool task does for its job.
type taskKind uint8

const (
	kindNone    taskKind = iota // no job's task: a run's seed
	kindMap                     // mapper over one split
	kindShuffle                 // shuffle partition of one map task
	kindReduce                  // one reduce slot
	kindMerge                   // one output merge shard
	numKinds
)

// taskLabel names a task to the record: its job's index in the program,
// its kind, and its place in the job's stage — input part and map task
// for map and shuffle tasks, slot for reduce tasks, output (sorted name
// order) for merge shards — and whether a reduce slot is a skew-split
// sub-range.
type taskLabel struct {
	job, part, index int32
	kind             taskKind
	split            bool
}

// span is one finished task: its label and how long it ran.
type span struct {
	taskLabel
	ns int64
}

// begin binds the record to the program and the number of its jobs the
// run schedules.
func (p *Progress) begin(prog *Program, jobs int) {
	p.mu.Lock()
	p.prog, p.jobs = prog, jobs
	p.mu.Unlock()
}

func (p *Progress) spawn(k taskKind) {
	p.mu.Lock()
	p.spawned[k]++
	p.mu.Unlock()
}

func (p *Progress) jobDone() {
	p.mu.Lock()
	p.jobsDone++
	p.mu.Unlock()
}

// run executes one granted task and records its span.
func (p *Progress) run(c *poolCtx, t poolTask) {
	start := time.Now()
	t.fn(c)
	ns := int64(time.Since(start))
	p.mu.Lock()
	p.finished[t.kind]++
	if t.kind != kindNone {
		p.spans = append(p.spans, span{t.taskLabel, ns})
	}
	p.mu.Unlock()
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

// Snapshot returns the run's live progress: tasks finished and spawned
// by kind, jobs completed and scheduled.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressSnapshot{
		MapTasksDone: p.finished[kindMap], MapTasksTotal: p.spawned[kindMap],
		ShuffleTasksDone: p.finished[kindShuffle], ShuffleTasksTotal: p.spawned[kindShuffle],
		ReduceTasksDone: p.finished[kindReduce], ReduceTasksTotal: p.spawned[kindReduce],
		MergeShardsDone: p.finished[kindMerge], MergeShardsTotal: p.spawned[kindMerge],
		JobsDone: p.jobsDone, JobsTotal: p.jobs,
	}
}

// JobTiming is one job's measured host wall-clock by task kind: each
// field sums the spans of that kind's tasks — CPU-seconds of work, not
// the job's elapsed time, since tasks overlap on a multi-worker pool.
// Summed task time is what cost-model calibration fits (it is close to
// invariant across pool widths). Timings vary run to run and are kept
// out of JobStats, whose bit-for-bit determinism contract the golden
// and differential tests pin.
type JobTiming struct {
	Name           string
	MapSeconds     float64 // map tasks (mapper over one split; Emit encodes and packs)
	ShuffleSeconds float64 // shuffle partition tasks (counted two-pass placement; near zero at r = 1, where the arena is handed over)
	ReduceSeconds  float64 // reduce partition tasks (gather through the key set, sort the distinct keys, scatter, reduce)
	MergeSeconds   float64 // output merge shards (relation.Merge, publish)
	// SplitSeconds is the share of ReduceSeconds spent in sub-range
	// reduce tasks created by the runtime skew splitter — a subset, not
	// an additional kind, so TotalSeconds is unaffected by splitting.
	SplitSeconds float64
}

// TotalSeconds returns the summed task time of all four kinds.
func (t JobTiming) TotalSeconds() float64 {
	return t.MapSeconds + t.ShuffleSeconds + t.ReduceSeconds + t.MergeSeconds
}

// CriticalPath is a run's work and span. Work / Seconds bounds the
// speed-up any pool width can reach.
type CriticalPath struct {
	Seconds float64   // the span: the longest chain of dependent tasks
	Work    float64   // Σ JobTiming.TotalSeconds over the run's jobs, in job order
	Kinds   JobTiming // the seconds each task kind adds along the path
}

// tally is task nanoseconds by kind, the skew-split reduce share apart.
type tally struct {
	ns    [numKinds]int64
	split int64
}

func (t *tally) add(s span) {
	t.ns[s.kind] += s.ns
	if s.split {
		t.split += s.ns
	}
}

func (t tally) timing(name string) JobTiming {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	return JobTiming{Name: name, MapSeconds: sec(t.ns[kindMap]), ShuffleSeconds: sec(t.ns[kindShuffle]),
		ReduceSeconds: sec(t.ns[kindReduce]), MergeSeconds: sec(t.ns[kindMerge]), SplitSeconds: sec(t.split)}
}

// timings folds the spans into one JobTiming per scheduled job.
func (p *Progress) timings() []JobTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	sums := make([]tally, p.jobs)
	for _, s := range p.spans {
		sums[s.job].add(s)
	}
	ts := make([]JobTiming, p.jobs)
	for j, t := range sums {
		ts[j] = t.timing(p.prog.Jobs[j].Name)
	}
	return ts
}

// chain is the longest chain of dependent tasks ending at some task:
// its nanoseconds, in all and by kind.
type chain struct {
	ns int64
	tally
}

func (c chain) then(s span) chain {
	c.ns += s.ns
	c.add(s)
	return c
}

func longer(a, b chain) chain {
	if b.ns > a.ns {
		return b
	}
	return a
}

// CriticalPath folds the record over the program's structure: a map
// task waits for the merge shard that publishes its input (a base input
// is ready at the start), and each later stage of a job waits for every
// task of the stages before it. It does not follow spawn edges: a stage
// is spawned by whichever task of the stage before finished last, which
// need not end the longest chain. A canceled run's path runs over the
// tasks that finished.
func (p *Progress) CriticalPath() CriticalPath {
	p.mu.Lock()
	defer p.mu.Unlock()
	jobs := make([][]span, p.jobs)
	for _, s := range p.spans {
		jobs[s.job] = append(jobs[s.job], s)
	}
	var cp CriticalPath
	merged := map[string]chain{} // per produced relation: the chain ending at its merge shard
	var path chain
	for j, js := range jobs {
		job := p.prog.Jobs[j]
		outs := outputOrder(job.Outputs)
		var sum tally // the job's spans, summed as timings sums them
		var end chain // the longest chain through the job so far
		for _, k := range []taskKind{kindMap, kindShuffle, kindReduce, kindMerge} {
			ready := end
			for _, s := range js {
				if s.kind != k {
					continue
				}
				sum.add(s)
				if k == kindMap {
					ready = merged[job.Inputs[s.part]]
				}
				c := ready.then(s)
				if k == kindMerge {
					merged[outs[s.index]] = c
				}
				end = longer(end, c)
			}
		}
		cp.Work += sum.timing("").TotalSeconds()
		path = longer(path, end)
	}
	cp.Seconds = float64(path.ns) / 1e9
	cp.Kinds = path.timing("")
	return cp
}
