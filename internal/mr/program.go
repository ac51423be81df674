package mr

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/relation"
)

// Program is a directed acyclic graph of MR jobs (§3.2): jobs are listed
// in execution order and an edge j → k exists when job k reads a relation
// that job j outputs. The number of rounds of the program is the length
// of the longest path.
type Program struct {
	Jobs []*Job
}

// ReadSets derives the relation-granular dependency structure of the
// program from the jobs' declared per-input read sets (Job.Inputs): for
// each job, one entry per input — in Inputs order — holding the index
// of the earlier job producing that relation, or -1 for a base
// relation. Each relation has at most one producer (Validate forbids
// overwrites), so these entries are exactly the producer→consumer edges
// the pipelined scheduler wires: input k of job i becomes runnable when
// job ReadSets()[i][k]'s merge shard for that relation completes, or
// immediately when the entry is -1.
func (p *Program) ReadSets() [][]int {
	producer := make(map[string]int) // relation name -> job index of latest producer
	sets := make([][]int, len(p.Jobs))
	for i, j := range p.Jobs {
		set := make([]int, len(j.Inputs))
		for k, in := range j.Inputs {
			if pi, ok := producer[in]; ok {
				set[k] = pi
			} else {
				set[k] = -1
			}
		}
		sets[i] = set
		for out := range j.Outputs {
			producer[out] = i
		}
	}
	return sets
}

// Deps derives, for each job, the indices of the jobs it depends on: the
// job-granular projection of ReadSets (first occurrence order, deduped).
func (p *Program) Deps() [][]int {
	deps := make([][]int, len(p.Jobs))
	for i, set := range p.ReadSets() {
		seen := make(map[int]bool)
		for _, pi := range set {
			if pi >= 0 && !seen[pi] {
				seen[pi] = true
				deps[i] = append(deps[i], pi)
			}
		}
	}
	return deps
}

// Rounds returns the length of the longest dependency chain (the number
// of rounds of the MR program).
func (p *Program) Rounds() int {
	deps := p.Deps()
	depth := make([]int, len(p.Jobs))
	max := 0
	for i := range p.Jobs {
		d := 1
		for _, pi := range deps[i] {
			if depth[pi]+1 > d {
				d = depth[pi] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}

// Validate checks that each job's inputs are satisfied by the base
// database names or earlier jobs, and that no job overwrites a base
// relation or an earlier job's output.
func (p *Program) Validate(base []string) error {
	avail := make(map[string]bool)
	for _, n := range base {
		avail[n] = true
	}
	for i, j := range p.Jobs {
		for _, in := range j.Inputs {
			if !avail[in] {
				return fmt.Errorf("mr: job %d (%s) reads %q, which no base relation or earlier job provides", i, j.Name, in)
			}
		}
		for out := range j.Outputs {
			if avail[out] {
				return fmt.Errorf("mr: job %d (%s) overwrites relation %q", i, j.Name, out)
			}
		}
		for out := range j.Outputs {
			avail[out] = true
		}
	}
	return nil
}

// Run executes the program as one unified task graph, feeding outputs
// forward, and returns the database of all job outputs together with
// per-job stats and measured task timings (see JobTiming), index-aligned
// in declared job order. The input database is never modified: runs
// mutate only a private working copy. opts observes and bounds the run
// (see RunOptions).
//
// Scheduling is partition-granular on a single pool of Config.Workers
// workers (see runPipelined): a job's map tasks over an input start as
// soon as that relation exists, so phases of dependent jobs overlap
// instead of meeting at per-job barriers. Because each relation has a
// unique producer (Validate forbids overwrites) and a consumer part
// waits for exactly that producer's merge, every job sees the inputs it
// would see under sequential execution — outputs and stats are
// bit-for-bit identical at every parallelism level.
//
// Failure semantics are deterministic: the only execution-time job
// failures are per-job validation failures (Validate above excludes
// unknown inputs), so jobs are validated up front. When the
// lowest-indexed broken job is f, jobs 0..f-1 run to completion and
// report stats, jobs from f on are not started, and the returned error
// names job f.
//
// Cancellation semantics: the pool stops at the next task boundary —
// never mid-task, so no partially folded state is ever observable.
// Jobs that completed before the cancel report their stats and timings
// (bit-for-bit identical to an uncanceled run's), the outputs database
// is nil, and the returned error wraps ctx.Err(), so
// errors.Is(err, context.Canceled) (or DeadlineExceeded) holds. A
// canceled ctx always yields that error, even when the run raced to
// completion first. A run that charges past opts.Budget's limit stops
// on the same path with the same guarantees — no goroutines or temp
// files left — and an error matching ErrBudgetExceeded via errors.Is.
// ctx passes unchanged down to runTasks (guard: TestCancelSweepClean).
func (e *Engine) Run(ctx context.Context, p *Program, db *relation.Database, opts RunOptions) (*relation.Database, []JobStats, []JobTiming, error) {
	if err := p.Validate(db.Names()); err != nil {
		return nil, nil, nil, err
	}
	working := relation.NewDatabase()
	for _, r := range db.Relations() {
		working.Put(r)
	}
	limit := len(p.Jobs)
	var failErr error
	for i, job := range p.Jobs {
		if err := job.validate(); err != nil {
			limit, failErr = i, err
			break
		}
	}
	gov := e.newGovern(opts.Budget)
	// Sweep unconsumed spill files however the run ends — completion,
	// cancel, budget abort, or a task panic unwinding through us.
	defer gov.spill.cleanup()
	results, runErr := e.runPipelined(ctx, p, working, e.workers(), limit, opts.Progress, gov)
	// Fold completed jobs in declared order so the outputs database and
	// the stats slice are independent of the schedule.
	outputs := relation.NewDatabase()
	stats := make([]JobStats, 0, len(p.Jobs))
	timings := make([]JobTiming, 0, len(p.Jobs))
	for _, res := range results {
		if !res.done {
			continue
		}
		for _, r := range res.outs.Relations() {
			outputs.Put(r)
		}
		stats = append(stats, res.stats)
		timings = append(timings, res.timing)
	}
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			return nil, stats, timings, fmt.Errorf("mr: program canceled: %w", runErr)
		}
		return nil, stats, timings, fmt.Errorf("mr: program aborted: %w", runErr)
	}
	if failErr != nil {
		return nil, stats, timings, fmt.Errorf("mr: job %s: %w", p.Jobs[limit].Name, failErr)
	}
	return outputs, stats, timings, nil
}
