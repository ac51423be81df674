package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/workload"
)

// bsgfStrategies are the §5.2 contenders (1-ROUND added per workload
// when applicable).
func bsgfStrategies(wl workload.Workload) []core.Strategy {
	s := []core.Strategy{
		core.StrategySEQ,
		core.StrategyPAR,
		core.StrategyGreedy,
		baselines.StrategyHPAR,
		baselines.StrategyHPARS,
		baselines.StrategyPPAR,
	}
	if core.AllOneRound(wl.Program.Queries) {
		s = append(s, core.StrategyOneRound)
	}
	return s
}

// sgfStrategies are the §5.3 contenders.
func sgfStrategies() []core.Strategy {
	return []core.Strategy{core.StrategySeqUnit, core.StrategyParUnit, core.StrategyGreedySGF}
}

// scalingStrategies are the §5.4 contenders.
func scalingStrategies() []core.Strategy {
	return []core.Strategy{core.StrategySEQ, core.StrategyPAR, core.StrategyGreedy, core.StrategyOneRound}
}
