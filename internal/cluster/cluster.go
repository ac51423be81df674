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
// tasks are assigned to free slots in job-index order, a job's maps
// first and its reduces once its maps have all completed. Job states are
// plain values and pending events sit in a typed binary min-heap ordered
// by (time, job, seq). This reproduces the paper's wave effects — e.g.
// PAR's map demand exceeding cluster capacity at large data sizes
// (Figure 7a) shows up as extra waves and a net-time jump.
package cluster

import (
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
	readyAt          float64 // when dependencies are done + overhead elapsed
	depsLeft         int
	nextMap, nextRed int // tasks launched so far
	running          int // tasks launched and not yet completed
	done             bool
	start, end       float64
}

// ready reports whether the job's gate is open at now and it is not done.
func (s *jobState) ready(now float64) bool {
	return !s.done && s.depsLeft == 0 && s.readyAt <= now
}

// idle reports whether the job has launched every task and has none
// running: the one condition that completes a job.
func (s *jobState) idle(p *cost.TaskPlan) bool {
	return s.running == 0 && s.nextMap == len(p.MapTasks) && s.nextRed == len(p.ReduceTasks)
}

// event is a running task completion, or a job's gate opening (its
// readyAt), which frees no slot but lets launch see the job.
type event struct {
	time float64
	job  int
	seq  int // tiebreaker for determinism
	gate bool
}

func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.job != b.job {
		return a.job < b.job
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Simulate schedules jobs on the cluster and returns the time metrics.
// Dependencies must be acyclic and refer to smaller or larger indices
// freely; a job's maps start only after all dependency jobs fully finish
// plus the job overhead (startup), and its reduce tasks only after its
// own maps have all completed. A job with reduce tasks and no map tasks
// runs its reduces at its gate.
func Simulate(cfg Config, jobs []Job) Result {
	n := len(jobs)
	states := make([]jobState, n)
	succ := make([][]int, n)
	tasks := 0
	totalTime := 0.0
	for i, j := range jobs {
		states[i].depsLeft = len(j.Deps)
		for _, d := range j.Deps {
			if d < 0 || d >= n {
				panic(fmt.Sprintf("cluster: job %d has out-of-range dep %d", i, d))
			}
			if d == i {
				panic(fmt.Sprintf("cluster: job %d depends on itself", i))
			}
			succ[d] = append(succ[d], i)
		}
		tasks += len(j.Plan.MapTasks) + len(j.Plan.ReduceTasks)
		totalTime += j.Plan.Overhead
	}
	slotsFree := cfg.Slots()
	// At most one task per slot runs and each job's gate is pushed once.
	events := make(eventQueue, 0, min(slotsFree, tasks)+n)
	seq := 0
	// gate opens job ji's gate at readyAt = now + its overhead.
	gate := func(ji int, now float64) {
		states[ji].readyAt = now + jobs[ji].Plan.Overhead
		events.push(event{time: states[ji].readyAt, job: ji, seq: seq, gate: true})
		seq++
	}
	for i := range states {
		if states[i].depsLeft == 0 {
			gate(i, 0)
		}
	}
	var lastEnd float64
	finish := func(ji int, now float64) {
		states[ji].done = true
		states[ji].end = now
		lastEnd = max(lastEnd, now)
		for _, si := range succ[ji] {
			if states[si].depsLeft--; states[si].depsLeft == 0 {
				gate(si, now)
			}
		}
	}

	now := 0.0
	for {
		// A job without tasks is idle, and so complete, once ready; any
		// other job completes at its last task's completion event.
		for ji := range states {
			if s := &states[ji]; s.ready(now) && s.idle(&jobs[ji].Plan) {
				s.start = now
				finish(ji, now)
			}
		}
		// Assign free slots one task at a time, each to the lowest-indexed
		// ready job with a task to launch: its next map, or once its maps
		// have all completed, its next reduce.
	launch:
		for slotsFree > 0 {
			for ji := range states {
				s := &states[ji]
				if !s.ready(now) {
					continue
				}
				plan := &jobs[ji].Plan
				var d float64
				switch {
				case s.nextMap < len(plan.MapTasks):
					d = plan.MapTasks[s.nextMap]
					s.nextMap++
				case s.nextRed < len(plan.ReduceTasks) && (s.nextRed > 0 || s.running == 0):
					d = plan.ReduceTasks[s.nextRed]
					s.nextRed++
				default:
					continue
				}
				if s.nextMap+s.nextRed == 1 {
					s.start = now
				}
				s.running++
				totalTime += d
				events.push(event{time: now + d, job: ji, seq: seq})
				seq++
				slotsFree--
				continue launch
			}
			break
		}
		if len(events) == 0 {
			break
		}
		e := events.pop()
		now = e.time
		if e.gate {
			continue
		}
		slotsFree++
		s := &states[e.job]
		if s.running--; s.idle(&jobs[e.job].Plan) {
			finish(e.job, now)
		}
	}

	res := Result{NetTime: lastEnd, TotalTime: totalTime, Jobs: make([]JobTimes, n)}
	for i, s := range states {
		if !s.done {
			panic(fmt.Sprintf("cluster: job %d (%s) never completed; dependency cycle?", i, jobs[i].Name))
		}
		res.Jobs[i] = JobTimes{Name: jobs[i].Name, Start: s.start, End: s.end}
	}
	return res
}
