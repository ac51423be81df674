package exec

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// strategy is one row of the strategy table: an evaluation strategy of
// §5, whether it accepts only flat (dependency-free) programs, and how
// its plan is built. The estimator samples its database on demand, so
// rows that price nothing pay nothing for it.
type strategy struct {
	name     core.Strategy
	flatOnly bool
	build    planner
}

type planner func(name string, est *core.Estimator, prog *sgf.Program) (*core.Plan, error)

// queriesOnly adapts a planner over a flat query set to a table row.
func queriesOnly(plan func(string, []*sgf.BSGF) (*core.Plan, error)) planner {
	return func(name string, _ *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return plan(name, prog.Queries)
	}
}

// strategies is the one list of what exists: the library, the server,
// the CLI, the lab and the experiments all plan through it, in this
// order (flat strategies, program strategies, Hive/Pig baselines).
var strategies = []strategy{
	{core.StrategySEQ, true, queriesOnly(core.SeqPlanMulti)},
	{core.StrategyPAR, true, queriesOnly(core.ParPlan)},
	{core.StrategyGreedy, true, func(name string, est *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return est.GreedyPlan(name, prog.Queries)
	}},
	{core.StrategyOpt, true, func(name string, est *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return est.OptPlan(name, prog.Queries)
	}},
	{core.StrategyOneRound, true, queriesOnly(core.OneRoundPlan)},
	{core.StrategySeqUnit, false, func(name string, _ *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return core.SeqUnitPlan(name, prog)
	}},
	{core.StrategyParUnit, false, func(name string, _ *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return core.ParUnitPlan(name, prog)
	}},
	{core.StrategyGreedySGF, false, func(name string, est *core.Estimator, prog *sgf.Program) (*core.Plan, error) {
		return est.GreedySGFPlan(name, prog)
	}},
	{baselines.StrategyHPAR, true, queriesOnly(baselines.HParPlan)},
	{baselines.StrategyHPARS, true, queriesOnly(baselines.HParSPlan)},
	{baselines.StrategyPPAR, true, queriesOnly(baselines.PParPlan)},
}

// Strategies returns the name of every strategy BuildPlan accepts, in
// table order.
func Strategies() []core.Strategy {
	names := make([]core.Strategy, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// BuildPlan builds the plan called name for prog under the strategy.
// Cost-based strategies sample db to estimate job costs, exactly as
// §5.1's optimization (3) describes. A flat-only strategy rejects a
// program in which a query reads another query's output. Both errors
// keep the library's prefix: they reach the CLI's users and, through
// 422 bodies, the server's clients.
func BuildPlan(strat core.Strategy, name string, costCfg cost.Config, prog *sgf.Program, db *relation.Database) (*core.Plan, error) {
	for _, s := range strategies {
		if s.name != strat {
			continue
		}
		if s.flatOnly {
			if err := sgf.CheckForwardRefs(prog); err != nil {
				return nil, err
			}
			if !sgf.Flat(prog) {
				return nil, fmt.Errorf("gumbo: strategy %s requires dependency-free queries; use SeqUnit, ParUnit or GreedySGF", strat)
			}
		}
		return s.build(name, core.NewEstimator(costCfg, cost.Gumbo, db, prog), prog)
	}
	return nil, fmt.Errorf("gumbo: unknown strategy %q", strat)
}
