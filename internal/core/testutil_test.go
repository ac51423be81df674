package core

import (
	"context"
	"os"
	"strconv"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
)

// newTestEngine returns an engine over c whose spill threshold and
// skew-split ratio come from GUMBO_SPILL_THRESHOLD / GUMBO_SKEW_SPLIT:
// the CI spill gate's lever for re-running the plan and message-codec
// suites with every partition spilling (unset or invalid = off).
func newTestEngine(c cost.Config) *mr.Engine {
	cfg := mr.Config{Cost: c}
	cfg.SpillThreshold, _ = strconv.ParseInt(os.Getenv("GUMBO_SPILL_THRESHOLD"), 10, 64)
	cfg.SkewSplit, _ = strconv.ParseFloat(os.Getenv("GUMBO_SKEW_SPLIT"), 64)
	return mr.NewEngine(cfg)
}

// runJob executes one job as a one-job Program through Engine.Run, the
// engine's only door.
func runJob(ctx context.Context, e *mr.Engine, job *mr.Job, db *relation.Database) (*relation.Database, mr.JobStats, error) {
	outs, stats, _, err := e.Run(ctx, &mr.Program{Jobs: []*mr.Job{job}}, db, mr.RunOptions{})
	if err != nil {
		return nil, mr.JobStats{}, err
	}
	return outs, stats[0], nil
}
