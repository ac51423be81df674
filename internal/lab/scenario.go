package lab

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

// DataProfile names one data-distribution configuration the scenario
// generator composes with generated programs: the knobs map onto
// data.GuardSpec/CondSpec via workload.Workload.
type DataProfile struct {
	Name      string
	MatchFrac float64 // fraction of conditional tuples matching the guard
	CoverSel  float64 // with CoverSet: fraction of guard tuples matched (§5.4)
	CoverSet  bool
	Zipf      float64 // >0: skew guard column 0 and join values (arity ≥ 2)
}

// Profiles returns the sweep's data profiles: the paper's uniform 50%
// setting, a zipf-skewed variant, and the adversarial ends of the
// selectivity axis (§5.4) — almost nothing matches, or everything does.
func Profiles() []DataProfile {
	return []DataProfile{
		{Name: "uniform", MatchFrac: 0.5},
		{Name: "zipf", MatchFrac: 0.5, Zipf: 0.8},
		{Name: "sparse", CoverSel: 0.05, CoverSet: true},
		{Name: "dense", CoverSel: 1.0, CoverSet: true},
		{Name: "nomatch", MatchFrac: 0},
	}
}

// Scenario is one generated experiment: a program plus the data
// configuration to run it against. Scenarios are value types; the same
// scenario always builds the same database and programs (generators are
// seeded).
type Scenario struct {
	Name        string
	Seed        int64
	Shape       Shape
	Profile     DataProfile
	Program     *sgf.Program
	GuardTuples int
	CondTuples  int
}

// ScenarioConfig bounds the scenario generator.
type ScenarioConfig struct {
	Gen         GenConfig
	GuardTuples int // tuples per guard relation (default 2000)
	CondTuples  int // tuples per conditional relation (default 2000)
}

// DefaultScenarioConfig returns the sweep defaults: small relations —
// big enough to exercise multi-mapper splits under the lab's scaled
// cost config, small enough that a full sweep stays fast.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{Gen: DefaultGenConfig(), GuardTuples: 2000, CondTuples: 2000}
}

func (c ScenarioConfig) normalized() ScenarioConfig {
	if c.GuardTuples <= 0 {
		c.GuardTuples = 2000
	}
	if c.CondTuples <= 0 {
		c.CondTuples = 2000
	}
	c.Gen = c.Gen.normalized()
	return c
}

// GenScenario generates the scenario for seed ≥ 1: the program shape is
// drawn from the seed, and the data profile rotates with it, so any
// len(Profiles()) consecutive seeds cover every profile.
func GenScenario(seed int64, cfg ScenarioConfig) Scenario {
	cfg = cfg.normalized()
	prog, shape := GenProgram(seed, cfg.Gen)
	profiles := Profiles()
	prof := profiles[(seed-1)%int64(len(profiles))]
	return Scenario{
		Name:        fmt.Sprintf("s%d-%s-%s", seed, shape, prof.Name),
		Seed:        seed,
		Shape:       shape,
		Profile:     prof,
		Program:     prog,
		GuardTuples: cfg.GuardTuples,
		CondTuples:  cfg.CondTuples,
	}
}

// GenScenarios generates scenarios for seeds 1..n.
func GenScenarios(n int, cfg ScenarioConfig) []Scenario {
	out := make([]Scenario, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		out = append(out, GenScenario(seed, cfg))
	}
	return out
}

// Source returns the scenario's SGF program text.
func (s Scenario) Source() string { return s.Program.String() }

// Build generates the scenario's database: every base relation of the
// program, guards at GuardTuples and conditionals at CondTuples, under
// the profile's distribution, then correlated so atoms referencing
// earlier outputs stay selective but nonempty (correlate.go — without
// this, chain-shaped scenarios run dry after their first query).
// Deterministic in the scenario.
func (s Scenario) Build() *relation.Database {
	w := workload.Workload{
		Name:        s.Name,
		Program:     s.Program,
		GuardTuples: s.GuardTuples,
		CondTuples:  s.CondTuples,
		MatchFrac:   s.Profile.MatchFrac,
		CoverSel:    s.Profile.CoverSel,
		CoverSet:    s.Profile.CoverSet,
		Zipf:        s.Profile.Zipf,
		Seed:        s.Seed,
	}
	db := w.Build(1.0)
	correlateOutputRefs(s.Program, db, s.Seed)
	return db
}

// CondAtomCount returns the total number of conditional atoms across
// the program's queries: the size measure that gates the brute-force
// OPT strategy (Bell-number blowup in the equation count).
func (s Scenario) CondAtomCount() int {
	n := 0
	for _, q := range s.Program.Queries {
		n += len(q.CondAtoms())
	}
	return n
}
