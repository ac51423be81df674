package mr

import (
	"context"
	"fmt"
	"os"
	"strconv"

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

// runSequential executes the jobs strictly in declared order, one
// whole job at a time: the reference schedule the pipelined scheduler
// must match bit for bit (the differential tests compare against it).
func (e *Engine) runSequential(p *Program, working *relation.Database) ([]progResult, error) {
	results := make([]progResult, len(p.Jobs))
	for i, job := range p.Jobs {
		outs, st, err := e.RunJob(context.Background(), job, working)
		if err != nil {
			return results, fmt.Errorf("mr: job %s: %w", job.Name, err)
		}
		for _, r := range outs.Relations() {
			working.Put(r)
		}
		results[i] = progResult{outs: outs, stats: st, done: true}
	}
	return results, nil
}
