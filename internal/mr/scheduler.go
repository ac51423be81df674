package mr

import (
	"context"

	"repro/internal/relation"
)

// progResult is the outcome of one scheduled job.
type progResult struct {
	outs   *relation.Database
	stats  JobStats
	timing JobTiming
	done   bool // job ran to completion
}

// consumerRef identifies one input part of one job: the unit the
// pipelined scheduler releases when the relation that part reads
// becomes available.
type consumerRef struct {
	job  int
	part int
}

// runPipelined executes jobs [0, limit) of the program as one unified
// task graph on a single work-stealing pool of `workers` goroutines.
// There are no job barriers: producer→consumer edges are wired at
// relation granularity from the jobs' declared read sets
// (Program.ReadSets) — a job's map tasks over an input spawn the moment
// that relation exists. Base-relation parts spawn at seed time, so a
// downstream job's map work over base inputs (e.g. an EVAL job
// re-reading its guard relations) overlaps with the upstream jobs still
// computing its other inputs; produced parts spawn from the upstream
// merge shard that publishes the relation. Reduce partitions of one job
// overlap with map tasks of independent jobs and of dependents whose
// other inputs are ready — whatever is runnable keeps the pool busy.
//
// Determinism: each merged relation is published into the shared
// working database before its consumers' map tasks are spawned (the
// spawn's queue handoff orders the writes), and every job reads exactly
// the relations it would read under sequential execution — each
// relation has a unique producer (Validate forbids overwrites) and a
// consumer part waits for precisely that producer's merge shard.
// Results and stats are therefore bit-for-bit identical to a whole-job-
// at-a-time sequential run at every pool width (the tests' runSequential
// oracle); the caller folds them in declared job order.
//
// Cancellation stops the pool at the next task boundary (see
// runTasks): jobs whose done callback already fired are complete —
// their results slot is final and bit-for-bit identical to a full run
// — while every other job's partial state is simply dropped with the
// abandoned tasks. The returned error is ctx.Err() when the run was
// canceled, nil otherwise. prog, when non-nil, observes live task
// counters (one Progress per run).
func (e *Engine) runPipelined(ctx context.Context, p *Program, working *relation.Database, workers, limit int, prog *Progress, gov govern) ([]progResult, error) {
	results := make([]progResult, len(p.Jobs))
	prog.setJobsTotal(limit)
	if limit == 0 {
		return results, ctx.Err()
	}
	reads := p.ReadSets()
	// consumers[rel] lists the input parts reading a produced relation.
	// Jobs below limit only consume from producers below limit (a
	// producer always precedes its consumers), so the truncated graph is
	// closed and drains fully.
	consumers := make(map[string][]consumerRef)
	for i := 0; i < limit; i++ {
		for part, prod := range reads[i] {
			if prod >= 0 {
				name := p.Jobs[i].Inputs[part]
				consumers[name] = append(consumers[name], consumerRef{job: i, part: part})
			}
		}
	}
	runs := make([]*jobRun, limit)
	for i := 0; i < limit; i++ {
		i := i
		runs[i] = e.newJobRun(p.Jobs[i], gov,
			func(c *poolCtx, name string, rel *relation.Relation) {
				// Publish before releasing dependents: consumers spawned
				// below read the relation out of `working` or receive it
				// directly; either way the merge completed first.
				working.Put(rel)
				for _, cr := range consumers[name] {
					runs[cr.job].inputReady(c, cr.part, rel)
				}
			},
			func(c *poolCtx, jr *jobRun) {
				results[i] = progResult{outs: jr.outputDB(), stats: jr.stats, timing: jr.timing, done: true}
			})
		runs[i].progress = prog
	}
	err := e.runTasks(ctx, workers, func(c *poolCtx) {
		for i := 0; i < limit; i++ {
			runs[i].seed(c)
			for part, prod := range reads[i] {
				if prod < 0 {
					// Base relation: present from the start (Validate
					// checked the program against the base names).
					runs[i].inputReady(c, part, working.Relation(p.Jobs[i].Inputs[part]))
				}
			}
		}
	})
	return results, err
}
