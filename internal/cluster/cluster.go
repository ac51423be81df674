// Package cluster simulates the execution of a DAG of MapReduce jobs on a
// Hadoop/YARN cluster with a bounded pool of container slots, producing
// the two time metrics of §5.1:
//
//   - net time: elapsed (makespan) time from program start to the last
//     task finishing, with jobs gated by their dependencies and reducers
//     gated by the job's last map task (slowstart = 1 as in Appendix B);
//   - total time: the aggregate sum of time spent by all map and reduce
//     tasks (plus per-job overhead, modelling the application master).
//
// The simulator is a deterministic discrete-event list scheduler: ready
// tasks are assigned to free slots in job-index order (maps before the
// owning job's reduces). This reproduces the paper's wave effects — e.g.
// PAR's map demand exceeding cluster capacity at large data sizes
// (Figure 7a) shows up as extra waves and a net-time jump.
package cluster

import (
	"container/heap"
	"fmt"

	"repro/internal/cost"
)

// Config describes the simulated cluster. The paper's testbed is 10
// nodes with 10 YARN vcores each (Appendix B), giving 100 container
// slots shared by map and reduce tasks.
type Config struct {
	Nodes        int
	SlotsPerNode int
}

// DefaultConfig is the paper's 10-node cluster.
func DefaultConfig() Config { return Config{Nodes: 10, SlotsPerNode: 10} }

// Slots returns the total container pool size.
func (c Config) Slots() int {
	s := c.Nodes * c.SlotsPerNode
	if s < 1 {
		return 1
	}
	return s
}

// Job is one MR job to schedule: its per-task durations plus its
// dependencies (indices of jobs that must fully finish first).
type Job struct {
	Name string
	Plan cost.TaskPlan
	Deps []int
}

// JobTimes reports the simulated schedule of one job.
type JobTimes struct {
	Name       string
	Start, End float64
}

// Result is the outcome of a simulation.
type Result struct {
	NetTime   float64 // makespan in simulated seconds
	TotalTime float64 // Σ task durations + Σ job overheads
	Jobs      []JobTimes
}

// jobState tracks scheduling progress for one job.
type jobState struct {
	readyAt     float64 // when dependencies are done + overhead elapsed
	depsLeft    int
	nextMap     int
	mapsRunning int
	mapsDone    bool
	nextRed     int
	redsRunning int
	done        bool
	start, end  float64
	started     bool
}

// event is a running task completion, or a job's gate opening (its
// readyAt), which frees no slot but lets launch see the job.
type event struct {
	time float64
	job  int
	kind int // 0 = map, 1 = reduce, 2 = gate
	seq  int // tiebreaker for determinism
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].job != q[j].job {
		return q[i].job < q[j].job
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
func (q *eventQueue) popMin() event  { return heap.Pop(q).(event) }
func (q *eventQueue) pushEv(e event) { heap.Push(q, e) }
func newEventQueue() *eventQueue     { q := &eventQueue{}; heap.Init(q); return q }
func (q eventQueue) empty() bool     { return len(q) == 0 }

// Simulate schedules jobs on the cluster and returns the time metrics.
// Dependencies must be acyclic and refer to smaller or larger indices
// freely; a job's reduce tasks start only after its own maps finish and
// its maps start only after all dependency jobs fully finish plus the
// job overhead (startup).
func Simulate(cfg Config, jobs []Job) Result {
	n := len(jobs)
	states := make([]*jobState, n)
	succ := make([][]int, n)
	for i, j := range jobs {
		states[i] = &jobState{depsLeft: len(j.Deps)}
		for _, d := range j.Deps {
			if d < 0 || d >= n {
				panic(fmt.Sprintf("cluster: job %d has out-of-range dep %d", i, d))
			}
			if d == i {
				panic(fmt.Sprintf("cluster: job %d depends on itself", i))
			}
			succ[d] = append(succ[d], i)
		}
	}
	slotsFree := cfg.Slots()
	events := newEventQueue()
	seq := 0
	// gate opens job ji's gate at readyAt = now + its overhead.
	gate := func(ji int, now float64) {
		states[ji].readyAt = now + jobs[ji].Plan.Overhead
		events.pushEv(event{time: states[ji].readyAt, job: ji, kind: 2, seq: seq})
		seq++
	}
	now := 0.0
	for i, s := range states {
		if s.depsLeft == 0 {
			gate(i, now)
		}
	}
	totalTime := 0.0
	for _, j := range jobs {
		totalTime += j.Plan.Overhead
	}

	// launch assigns as many ready tasks as slots allow at time `now`.
	launch := func(now float64) {
		for slotsFree > 0 {
			scheduled := false
			for ji := range jobs {
				s := states[ji]
				if s.done || s.depsLeft > 0 || s.readyAt > now {
					continue
				}
				plan := &jobs[ji].Plan
				if s.nextMap < len(plan.MapTasks) {
					d := plan.MapTasks[s.nextMap]
					s.nextMap++
					s.mapsRunning++
					if !s.started {
						s.started = true
						s.start = now
					}
					totalTime += d
					events.pushEv(event{time: now + d, job: ji, kind: 0, seq: seq})
					seq++
					slotsFree--
					scheduled = true
					break
				}
				if s.mapsDone && s.nextRed < len(plan.ReduceTasks) {
					d := plan.ReduceTasks[s.nextRed]
					s.nextRed++
					s.redsRunning++
					if !s.started {
						s.started = true
						s.start = now
					}
					totalTime += d
					events.pushEv(event{time: now + d, job: ji, kind: 1, seq: seq})
					seq++
					slotsFree--
					scheduled = true
					break
				}
			}
			if !scheduled {
				return
			}
		}
	}

	// finishJob marks a job complete and releases dependents.
	var lastEnd float64
	finishJob := func(ji int, now float64) {
		s := states[ji]
		s.done = true
		s.end = now
		if now > lastEnd {
			lastEnd = now
		}
		for _, si := range succ[ji] {
			states[si].depsLeft--
			if states[si].depsLeft == 0 {
				gate(si, now)
			}
		}
	}

	// Zero-task jobs complete immediately when ready.
	completeEmpty := func(now float64) {
		for ji := range jobs {
			s := states[ji]
			plan := &jobs[ji].Plan
			if !s.done && s.depsLeft == 0 && s.readyAt <= now &&
				len(plan.MapTasks) == 0 && len(plan.ReduceTasks) == 0 {
				s.started = true
				s.start = now
				finishJob(ji, now)
			}
		}
	}

	for {
		completeEmpty(now)
		launch(now)
		if events.empty() {
			break
		}
		e := events.popMin()
		now = e.time
		if e.kind == 2 {
			continue
		}
		slotsFree++
		s := states[e.job]
		plan := &jobs[e.job].Plan
		if e.kind == 0 {
			s.mapsRunning--
			if s.nextMap == len(plan.MapTasks) && s.mapsRunning == 0 {
				s.mapsDone = true
				if len(plan.ReduceTasks) == 0 {
					finishJob(e.job, now)
				}
			}
		} else {
			s.redsRunning--
			if s.nextRed == len(plan.ReduceTasks) && s.redsRunning == 0 {
				finishJob(e.job, now)
			}
		}
	}

	res := Result{NetTime: lastEnd, TotalTime: totalTime}
	for i, s := range states {
		if !s.done {
			panic(fmt.Sprintf("cluster: job %d (%s) never completed; dependency cycle?", i, jobs[i].Name))
		}
		res.Jobs = append(res.Jobs, JobTimes{Name: jobs[i].Name, Start: s.start, End: s.end})
	}
	return res
}
