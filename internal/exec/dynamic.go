package exec

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// StrategyDynamic labels the dynamic evaluation strategy of §4.6's
// closing note: "a naive dynamic evaluation strategy may consist of
// re-running Greedy-SGF after each BSGF evaluation in order to obtain an
// updated MR query plan". RunDynamicSGF implements it at group
// granularity: after each executed group the remaining program is
// re-planned against the *materialized* intermediate relations, so the
// estimator works from real sizes instead of upper bounds.
const StrategyDynamic core.Strategy = "DYNAMIC"

// RunDynamicSGF evaluates prog with iterative re-planning. Each
// iteration runs Greedy-SGF on the not-yet-evaluated queries (whose
// dependencies are now materialized), executes the first group with a
// Greedy-BSGF plan, and folds the outputs back into the database. ctx
// cancels the run at the engine's next task boundary.
func (r *Runner) RunDynamicSGF(ctx context.Context, prog *sgf.Program, db *relation.Database) (*Result, error) {
	if err := sgf.Validate(prog); err != nil {
		return nil, err
	}
	working := relation.NewDatabase()
	for _, rel := range db.Relations() {
		working.Put(rel)
	}
	outputs := relation.NewDatabase()
	var allStats []mr.JobStats
	prevGroupEnd := -1 // index of the previous group's last job in resultPlan

	remaining := append([]*sgf.BSGF(nil), prog.Queries...)
	round := 0
	resultPlan := &core.Plan{Name: "dynamic", Strategy: StrategyDynamic}
	costCfg := r.Engine.Config().Cost
	for len(remaining) > 0 {
		round++
		sub := &sgf.Program{Queries: remaining}
		// Re-plan against current materialized state.
		est := core.NewEstimator(costCfg, cost.Gumbo, working, sub)
		sort := core.GreedySGF(sub)
		if len(sort) == 0 {
			return nil, fmt.Errorf("exec: dynamic planning produced no groups")
		}
		group := sort[0]
		queries := make([]*sgf.BSGF, len(group))
		for i, qi := range group {
			queries[i] = remaining[qi]
		}
		plan, err := est.GreedyPlan(fmt.Sprintf("dynamic/r%d", round), queries)
		if err != nil {
			return nil, err
		}
		outs, stats, _, err := r.Engine.Run(ctx, plan.Program(), working, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		for _, rel := range outs.Relations() {
			working.Put(rel)
			outputs.Put(rel)
		}
		// Stitch this group's jobs into the global plan, whose dependency
		// graph is the simulated schedule: intra-group deps shift by the
		// current offset; the whole group waits for the previous group
		// (re-planning is a barrier).
		offset := len(resultPlan.Jobs)
		for ji := range stats {
			deps := make([]int, 0, len(plan.Deps[ji])+1)
			for _, d := range plan.Deps[ji] {
				deps = append(deps, d+offset)
			}
			if prevGroupEnd >= 0 {
				deps = append(deps, prevGroupEnd)
			}
			resultPlan.AddJob(plan.Jobs[ji], deps...)
		}
		allStats = append(allStats, stats...)
		prevGroupEnd = len(resultPlan.Jobs) - 1
		resultPlan.Outputs = append(resultPlan.Outputs, plan.Outputs...)

		// Drop the executed queries.
		executed := make(map[int]bool, len(group))
		for _, qi := range group {
			executed[qi] = true
		}
		var next []*sgf.BSGF
		for qi, q := range remaining {
			if !executed[qi] {
				next = append(next, q)
			}
		}
		remaining = next
	}
	return &Result{
		Plan:     resultPlan,
		Outputs:  outputs,
		JobStats: allStats,
		Metrics:  r.metrics(resultPlan, allStats),
	}, nil
}
