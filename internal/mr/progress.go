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
// stage's last (mapsDone, shufflesDone, reducesDone, finishJob). A task
// that hands on a next phase (poolCtx.then) leaves a span per phase.
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
	kindReduce                  // one reduce partition's gather, or one piece of a cut one
	kindMerge                   // one output merge shard
	numKinds
)

// taskLabel names a task to the record: its job's index in the program,
// its kind, and its place in the job's stage — input part and map task
// for map and shuffle tasks, part −1 for a one-reducer task's mapping;
// for reduce tasks, the reducer and 0 for the task that gathers its
// partition (and reduces it when uncut) or 1..n for the pieces of a cut
// one; output (sorted name order) for merge shards — and whether a
// reduce task is one of a heavy partition's, which the skew splitter
// cuts.
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

// begin binds the record to the program the run schedules.
func (p *Progress) begin(prog *Program) {
	p.mu.Lock()
	p.prog, p.jobs = prog, len(prog.Jobs)
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

// run executes one granted task and records its span, then runs and
// records, phase by phase, the next phase each hands on (poolCtx.then):
// spawned as it starts, on the same worker and scratch. A phase counted
// as n tasks (poolCtx.countAs) is spawned n − 1 more times as it ends.
func (p *Progress) run(c *poolCtx, t poolTask) {
	for {
		c.count, c.next = 1, poolTask{}
		start := time.Now()
		t.fn(c)
		ns := int64(time.Since(start))
		p.mu.Lock()
		p.spawned[t.kind] += c.count - 1
		p.finished[t.kind] += c.count
		if t.kind != kindNone {
			p.spans = append(p.spans, span{t.taskLabel, ns})
		}
		p.mu.Unlock()
		if t = c.next; t.fn == nil {
			return
		}
		p.spawn(t.kind)
	}
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
	MapSeconds     float64 // map tasks (mapper over one split; Emit encodes and packs), and a one-reducer task's walk over the job's splits
	ShuffleSeconds float64 // shuffle partition tasks (counted two-pass placement; none for a one-reducer job)
	ReduceSeconds  float64 // reduce partition tasks (gather through the key set, scatter, reduce; a one-reducer task's scatter and reduce)
	MergeSeconds   float64 // output merge shards (relation.Merge, publish)
	// SplitSeconds is the share of ReduceSeconds spent in the reduce
	// tasks of heavy partitions, which the runtime skew splitter cuts
	// into pieces — a subset, not an additional kind, so TotalSeconds is
	// unaffected by splitting.
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

// CriticalPath folds the record over the program's structure: a
// one-reducer task's mapping waits for the merges that publish every
// input of its job, a map task for the merge shard that publishes its
// input (a base input is ready at the start) and for the one-reducer
// task whose fallback spawned it, each piece of a cut reduce partition
// waits for the task that gathered and cut it, and every other task of a
// job waits for every task of the stages before it. It does not follow
// spawn edges: a stage is spawned by whichever task of the stage before
// finished last, which need not end the longest chain. A canceled run's
// path runs over the tasks that finished.
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
		var sum tally                 // the job's spans, summed as timings sums them
		var end chain                 // the longest chain through the job so far
		var walk chain                // the chain ending at the job's one-reducer task's mapping, if any
		gathered := map[int32]chain{} // per reducer: the chain ending at its gather
		// A one-reducer task's mapping (map part −1) is folded as a stage
		// of its own before the map tasks its fallback spawns, and the
		// pieces of cut partitions (reduce part > 0) after the gathers,
		// whatever order they finished in.
		for si, k := range []taskKind{kindMap, kindMap, kindShuffle, kindReduce, kindReduce, kindMerge} {
			inline, pieces := si == 0, si == 4
			ready := end
			for _, s := range js {
				if s.kind != k || k == kindMap && (s.part < 0) != inline || k == kindReduce && (s.part > 0) != pieces {
					continue
				}
				sum.add(s)
				switch {
				case inline:
					for _, in := range job.Inputs {
						ready = longer(ready, merged[in])
					}
				case k == kindMap:
					ready = longer(merged[job.Inputs[s.part]], walk)
				case pieces:
					ready = gathered[s.index]
				}
				c := ready.then(s)
				switch {
				case inline:
					walk = c
				case k == kindReduce && !pieces:
					gathered[s.index] = c
				case k == kindMerge:
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
