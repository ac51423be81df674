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

// Validate is the one definition of a runnable program: every job has a
// mapper, a reducer, at least one input and at least one declared
// output; each input is a base relation (a name in base) or an earlier
// job's output; and no job overwrites a base relation or an earlier
// job's output. The error names the lowest-indexed job at fault.
func (p *Program) Validate(base []string) error {
	avail := make(map[string]bool)
	for _, n := range base {
		avail[n] = true
	}
	for i, j := range p.Jobs {
		switch {
		case j.Mapper == nil || j.Reducer == nil:
			return fmt.Errorf("mr: job %d (%s) lacks a mapper or reducer", i, j.Name)
		case len(j.Inputs) == 0:
			return fmt.Errorf("mr: job %d (%s) reads no input", i, j.Name)
		case len(j.Outputs) == 0:
			return fmt.Errorf("mr: job %d (%s) declares no output", i, j.Name)
		}
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
// A run completes or fails whole. An invalid program fails Validate
// before any task is granted. A run that is canceled, passes its
// deadline, charges past opts.Budget's limit or fails to spill stops at
// the next task boundary — never mid-task — and returns nil outputs,
// nil stats and nil timings with an error that errors.Is matches to
// context.Canceled, context.DeadlineExceeded, ErrBudgetExceeded or
// ErrSpill; a canceled ctx always yields its error, even when the run
// raced to completion first. A task panic is re-raised on the caller.
// Every exit leaves no goroutine or temp file behind, and the task
// record keeps what finished (Progress.Snapshot, CriticalPath). ctx
// passes unchanged down to runTasks (guard: TestCancelSweepClean).
func (e *Engine) Run(ctx context.Context, p *Program, db *relation.Database, opts RunOptions) (*relation.Database, []JobStats, []JobTiming, error) {
	if err := p.Validate(db.Names()); err != nil {
		return nil, nil, nil, err
	}
	rec := opts.Progress
	if rec == nil {
		rec = new(Progress)
	}
	rec.begin(p)
	gov := e.newGovern(opts.Budget)
	// Sweep unconsumed spill files however the run ends — completion,
	// cancel, budget abort, or a task panic unwinding through us.
	defer gov.spill.cleanup()
	reads := p.ReadSets()
	runs := make([]*jobRun, len(p.Jobs))
	for i, job := range p.Jobs {
		// Release the input parts reading the merged relation. A
		// producer precedes its consumers.
		runs[i] = e.newJobRun(i, job, gov, func(c *poolCtx, name string, rel *relation.Relation) {
			for j := i + 1; j < len(runs); j++ {
				for part, prod := range reads[j] {
					if prod == i && p.Jobs[j].Inputs[part] == name {
						runs[j].inputReady(c, part, rel)
					}
				}
			}
		})
	}
	if err := e.runTasks(ctx, e.workers(), rec, func(c *poolCtx) {
		// Every job's shape is decided before any input is released: a
		// merge may publish a produced input while this seed still runs.
		if h := c.pool.hooks; h == nil || !h.Staged {
			for i, jr := range runs {
				jr.predictOne(reads[i], db)
			}
		}
		for i, jr := range runs {
			for part, prod := range reads[i] {
				if prod < 0 {
					jr.inputReady(c, part, db.Relation(p.Jobs[i].Inputs[part]))
				}
			}
		}
	}); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, nil, fmt.Errorf("mr: program canceled: %w", err)
		}
		return nil, nil, nil, fmt.Errorf("mr: program aborted: %w", err)
	}
	outputs := relation.NewDatabase()
	stats := make([]JobStats, len(runs))
	for i, jr := range runs {
		for _, rel := range jr.merged {
			outputs.Put(rel)
		}
		stats[i] = jr.stats
	}
	return outputs, stats, rec.timings(), nil
}
