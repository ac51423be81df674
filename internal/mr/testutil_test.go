package mr

import (
	"context"
	"os"
	"strconv"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/relation"
)

// newTestEngine returns an engine over c whose spill threshold and
// skew-split ratio come from GUMBO_SPILL_THRESHOLD / GUMBO_SKEW_SPLIT:
// the CI spill and skew gates' lever for re-running this whole suite
// with every partition spilling and splitting (unset or invalid = off).
// Tests then adjust e.cfg before the first run; a test that needs a
// knob off whatever the gate says sets it to -1.
func newTestEngine(c cost.Config) *Engine {
	cfg := Config{Cost: c}
	cfg.SpillThreshold, _ = strconv.ParseInt(os.Getenv("GUMBO_SPILL_THRESHOLD"), 10, 64)
	cfg.SkewSplit, _ = strconv.ParseFloat(os.Getenv("GUMBO_SKEW_SPLIT"), 64)
	return NewEngine(cfg)
}

// runJob executes one job as a one-job Program through Engine.Run, the
// engine's only door.
func runJob(ctx context.Context, e *Engine, job *Job, db *relation.Database) (*relation.Database, JobStats, error) {
	outs, stats, _, err := e.Run(ctx, &Program{Jobs: []*Job{job}}, db, RunOptions{})
	if err != nil {
		return nil, JobStats{}, err
	}
	return outs, stats[0], nil
}

// countGrants installs a fault hook counting task grants until the
// returned restore is called.
func countGrants() (grants *atomic.Int64, restore func()) {
	grants = new(atomic.Int64)
	return grants, SetFaultHooks(FaultHooks{Grant: func(context.Context, int) { grants.Add(1) }})
}

// runSequential executes the jobs strictly in declared order, one
// whole job at a time: the reference schedule the pipelined scheduler
// must match bit for bit (the differential tests compare against it).
// It returns every job's outputs and its stats in job order.
func (e *Engine) runSequential(p *Program, working *relation.Database) (*relation.Database, []JobStats, error) {
	all := relation.NewDatabase()
	var stats []JobStats
	for _, job := range p.Jobs {
		outs, st, err := runJob(context.Background(), e, job, working)
		if err != nil {
			return all, stats, err
		}
		for _, r := range outs.Relations() {
			working.Put(r)
			all.Put(r)
		}
		stats = append(stats, st)
	}
	return all, stats, nil
}
