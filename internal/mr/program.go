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

// Run executes the program as one task graph on a single work-stealing
// pool of Config.Workers workers, and returns the database of all job
// outputs together with per-job stats and measured task timings (see
// JobTiming), index-aligned in declared job order. The input database
// is never modified. opts observes and bounds the run (see RunOptions);
// the timings are a fold over the run's task record, opts.Progress or,
// when that is nil, one Run makes itself.
//
// There are no job barriers: producer→consumer edges are wired at
// relation granularity from the jobs' declared read sets (ReadSets). A
// job's map tasks over a base input spawn at seed time, and over a
// produced input from the merge shard that produces it, so a downstream
// job's map work (e.g. an EVAL job re-reading its guard relations)
// overlaps the upstream jobs still computing its other inputs, and
// whatever is runnable keeps the pool busy. Because each relation has a
// unique producer (Validate forbids overwrites) and a consumer part
// waits for exactly that producer's merge, every job sees the inputs it
// would see under sequential execution — outputs and stats are
// bit-for-bit identical at every parallelism level (the tests'
// runSequential oracle), folded in declared job order.
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
	limit := len(p.Jobs)
	var failErr error
	for i, job := range p.Jobs {
		if err := job.validate(); err != nil {
			limit, failErr = i, err
			break
		}
	}
	rec := opts.Progress
	if rec == nil {
		rec = new(Progress)
	}
	rec.begin(p, limit)
	gov := e.newGovern(opts.Budget)
	// Sweep unconsumed spill files however the run ends — completion,
	// cancel, budget abort, or a task panic unwinding through us.
	defer gov.spill.cleanup()
	reads := p.ReadSets()
	runs := make([]*jobRun, limit)
	done := make([]bool, limit) // job i ran to completion
	for i := range runs {
		i := i
		runs[i] = e.newJobRun(i, p.Jobs[i], gov,
			// Release the input parts reading the merged relation. A
			// producer precedes its consumers, so the jobs below limit
			// form a closed graph that drains fully.
			func(c *poolCtx, name string, rel *relation.Relation) {
				for j := i + 1; j < limit; j++ {
					for part, prod := range reads[j] {
						if prod == i && p.Jobs[j].Inputs[part] == name {
							runs[j].inputReady(c, part, rel)
						}
					}
				}
			},
			func(c *poolCtx, jr *jobRun) {
				done[i] = true
				rec.jobDone()
			})
	}
	runErr := e.runTasks(ctx, e.workers(), rec, func(c *poolCtx) {
		for i, jr := range runs {
			jr.seed(c)
			for part, prod := range reads[i] {
				if prod < 0 {
					jr.inputReady(c, part, db.Relation(p.Jobs[i].Inputs[part]))
				}
			}
		}
	})
	outputs := relation.NewDatabase()
	stats := make([]JobStats, 0, limit)
	timings := make([]JobTiming, 0, limit)
	all := rec.timings()
	for i, jr := range runs {
		if !done[i] {
			continue
		}
		for _, rel := range jr.merged {
			outputs.Put(rel)
		}
		stats = append(stats, jr.stats)
		timings = append(timings, all[i])
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
