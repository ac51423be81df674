package lab

import (
	"runtime"
	"slices"
	"testing"

	gumbo "repro"

	"repro/internal/sgf"
)

// frozenScenarios are the highest-value generated scenarios, frozen
// as literal SGF so the tier-1 suite exercises them deterministically
// even if the generator's seed stream changes. They were produced by
// GenScenario at the recorded seeds and chosen to cover every shape and
// every data profile, with emphasis on the constructs that historically
// separate strategies: nested output guards, disjunction with negation,
// output relations as (possibly negated) conditional atoms, constants
// in atoms, skewed join columns, and an unsatisfiable conjunction.
var frozenScenarios = []frozenScenario{
	{"union-negation-nomatch", 1, ShapeUnion, "nomatch", `
Z1 := SELECT x1, x3 FROM R0(x0, x1, x2, x3) WHERE NOT S0(x1, x0) OR S0(x1, x2) OR S1(x3, x0) OR S2(x2, x3) OR S2(4, x1);
Z2 := SELECT x1 FROM R1(x0, x1) WHERE S3(x1) OR S4(x0, x1) OR NOT S3(x1);`},
	{"multi-output-atoms", 4, ShapeMulti, "uniform", `
Z1 := SELECT x0, x1, x2 FROM R0(x0, x1, x2) WHERE NOT S0(x2, x0) AND S1(x2) AND S1(x1);
Z2 := SELECT x0, x1 FROM R1(x0, x1, x2) WHERE Z1(x0, x2, x1);
Z3 := SELECT x1, x2 FROM R2(x0, x1, x2, x3) WHERE Z1(x3, x0, x1) AND S2(x0, x0) AND S1(x3);`},
	{"nested-two-level-dense", 6, ShapeNestedGuard, "dense", `
Z1 := SELECT x0, x1, x2, x3 FROM R0(x0, x1, x2, x3) WHERE NOT S0(x2, x3) AND S1(x3);
Z2 := SELECT x1, x3 FROM Z1(x0, x1, x2, x3) WHERE S0(x2, x2);
Z3 := SELECT x1 FROM Z1(x0, x1, x2, x3) WHERE NOT S0(x3, x0) OR S1(x0) OR S1(x2);`},
	{"star-zipf", 21, ShapeStar, "zipf", `
Z1 := SELECT x0 FROM R0(x0, x1) WHERE S0(x0, 5);
Z2 := SELECT x0 FROM R1(x0, x1, x2) WHERE S0(x1, x1) AND S1(x1) AND S0(6, x1) AND S1(x1) AND S2(x1);`},
	{"chain-three-deep", 23, ShapeChain, "uniform", `
Z1 := SELECT x0 FROM R0(x0, x1, x2, x3) WHERE S0(x3);
Z2 := SELECT x0 FROM R1(x0, x1, x2, x3) WHERE Z1(x1) AND S1(x1, x1);
Z3 := SELECT x0, x1 FROM R1(x0, x1, x2, x3) WHERE Z2(x0) AND S2(x3, x1);`},
	{"union-wide-zipf", 25, ShapeUnion, "zipf", `
Z1 := SELECT x0, x1, x2 FROM R0(x0, x1, x2, x3) WHERE S0(x0) OR NOT S1(x0, x1) OR S2(x2) OR S3(x0, x3) OR NOT S4(x1, x2);`},
	{"chain-sparse-flowing", 45, ShapeChain, "sparse", `
Z1 := SELECT x1 FROM R0(x0, x1) WHERE S0(x1);
Z2 := SELECT x2 FROM R1(x0, x1, x2) WHERE Z1(x2) AND S0(x2);
Z3 := SELECT x0, x1 FROM R2(x0, x1) WHERE Z2(x1) AND S0(x0);`},
	{"nested-contradiction", 36, ShapeNestedGuard, "sparse", `
Z1 := SELECT x0, x1 FROM R0(x0, x1) WHERE S0(x0) AND NOT S0(x0) AND S0(x0);
Z2 := SELECT x0 FROM Z1(x0, x1) WHERE S0(x1) AND S0(x0);
Z3 := SELECT x0 FROM Z2(x0) WHERE NOT S1(x0, 7) AND S0(x0) AND S2(1, x0);`},
	{"multi-negated-output", 38, ShapeMulti, "zipf", `
Z1 := SELECT x3 FROM R0(x0, x1, x2, x3) WHERE S0(x2, x0);
Z2 := SELECT x1, x2, x3 FROM R0(x0, x1, x2, x3) WHERE NOT S1(x0) AND Z1(x3) AND S0(6, x2);
Z3 := SELECT x0, x1, x2, x3 FROM R0(x0, x1, x2, x3) WHERE S2(x1, x1);
Z4 := SELECT x0, x1 FROM R0(x0, x1, x2, x3) WHERE NOT Z2(x0, x2, x1);`},
	{"multi-mixed-boolean", 39, ShapeMulti, "nomatch", `
Z1 := SELECT x0, x1 FROM R0(x0, x1) WHERE S0(x1, x0) OR S0(x1, x0) OR S0(3, x1);
Z2 := SELECT x0, x1, x2 FROM R1(x0, x1, x2) WHERE (NOT S1(x2, x0) AND Z1(x2, x1)) OR S2(x0);
Z3 := SELECT x0 FROM R2(x0, x1) WHERE S3(x1) OR NOT S4(x1, x0) OR S5(x0);
Z4 := SELECT x0 FROM Z1(x0, x1) WHERE Z3(x1);`},
	// The skew fixture: under the zipf profile this scenario's join
	// column concentrates on a handful of hot values, and at full lab
	// scale (2000 tuples) its MSJ job crosses Config.SkewSplit and
	// exercises the runtime reduce-partition splitter —
	// TestFrozenSkewScenarioSplits pins that. At the 300-tuple sweep
	// scale it stays below the threshold and just rides the oracle.
	{"skew-hot-union-zipf", 2, ShapeUnion, "zipf", `
Z1 := SELECT x0, x1 FROM R0(x0, x1) WHERE S0(x0) OR NOT S1(x1);`},
}

type frozenScenario struct {
	name    string
	seed    int64
	shape   Shape
	profile string
	src     string
}

// scenario builds the frozen scenario with tuples per relation.
func (f frozenScenario) scenario(t *testing.T, tuples int) Scenario {
	return Scenario{Name: f.name, Seed: f.seed, Shape: f.shape, Profile: profileByName(t, f.profile),
		Program: sgf.MustParse(f.src), GuardTuples: tuples, CondTuples: tuples}
}

func profileByName(t *testing.T, name string) DataProfile {
	t.Helper()
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("unknown profile %q", name)
	return DataProfile{}
}

// TestFrozenScenarioSweep runs every check over the frozen scenario
// table at widths {1, 2, GOMAXPROCS}: every applicable strategy must
// agree with the reference evaluator, every width must reproduce width 1
// bit for bit, and the split and lifecycle checks must pass.
func TestFrozenScenarioSweep(t *testing.T) {
	cfg := DefaultSweepConfig()
	// Width 2 is explicit so single-CPU machines still cross-check two
	// pool widths (pool width is logical, not physical).
	cfg.Widths = []int{1, 2, runtime.GOMAXPROCS(0)}
	cfg.Shrink = false
	var scenarios []Scenario
	for _, f := range frozenScenarios {
		scenarios = append(scenarios, f.scenario(t, 300))
	}
	res := RunSweep(scenarios, cfg)
	checkClean(t, res)
	if res.Scenarios != len(frozenScenarios) {
		t.Fatalf("swept %d scenarios, want %d", res.Scenarios, len(frozenScenarios))
	}
	for _, s := range res.Skips {
		if s.Reason == "" {
			t.Errorf("skip without reason: %s/%s", s.Scenario, s.Strategy)
		}
	}
	// The any-program strategies never plan-reject: every scenario runs
	// under at least 3 strategies × 2 widths.
	byScenario := map[string]int{}
	for _, r := range res.Runs {
		byScenario[r.Scenario]++
	}
	for _, f := range frozenScenarios {
		if byScenario[f.name] < 6 {
			t.Errorf("scenario %s has only %d runs", f.name, byScenario[f.name])
		}
	}
}

// TestChainCorrelationSelective pins the point of correlate.go: in the
// chain-shaped frozen scenarios every query downstream of an output
// reference must produce something (the chain flows) without producing
// everything (the reference stays selective). Before correlation these
// outputs were empty from the second link on.
func TestChainCorrelationSelective(t *testing.T) {
	for _, f := range frozenScenarios {
		if f.shape != ShapeChain {
			continue
		}
		sc := f.scenario(t, 300)
		q, err := gumbo.Parse(sc.Source())
		if err != nil {
			t.Fatalf("%s: parse: %v", f.name, err)
		}
		db := sc.Build()
		out, err := gumbo.EvalAll(q, db)
		if err != nil {
			t.Fatalf("%s: refeval: %v", f.name, err)
		}
		for _, query := range sc.Program.Queries {
			guard := db.Relation(query.Guard.Rel)
			if guard == nil {
				continue // output-guarded query; bounded by its producer instead
			}
			r := out.Relation(query.Name)
			if r == nil {
				t.Fatalf("%s: output %s missing", f.name, query.Name)
			}
			if r.Size() == 0 {
				t.Errorf("%s: output %s is empty; the chain ran dry", f.name, query.Name)
			}
			if r.Size() >= guard.Size() {
				t.Errorf("%s: output %s has %d tuples of a %d-tuple guard; reference not selective",
					f.name, query.Name, r.Size(), guard.Size())
			}
		}
	}
}

// TestFrozenSkewScenarioSplits pins the skew fixture's reason for
// existing: at full lab scale its zipf-hot reduce partition must
// actually cross the split threshold at every width, and the sweep's
// checks — the split run bit for bit against the unsplit one up to the
// split observability fields, and across widths — must pass.
func TestFrozenSkewScenarioSplits(t *testing.T) {
	i := slices.IndexFunc(frozenScenarios, func(f frozenScenario) bool { return f.name == "skew-hot-union-zipf" })
	if i < 0 {
		t.Fatal("skew-hot-union-zipf missing from the frozen table")
	}
	cfg := DefaultSweepConfig()
	cfg.Widths = []int{1, 2, runtime.GOMAXPROCS(0)}
	cfg.Shrink = false
	rep := RunSweep([]Scenario{frozenScenarios[i].scenario(t, 2000)}, cfg)
	checkClean(t, rep)
	if want := len(cfg.normalized().Widths); rep.SplitRuns != want {
		t.Errorf("fixture split at %d of %d widths; threshold or data drifted", rep.SplitRuns, want)
	}
}

// TestFrozenScenarioGoldenSizes pins each frozen scenario's reference
// output cardinalities. These golden numbers pin three layers at once:
// the data generator's seed streams, the workload builder's relation
// classification, and the reference evaluator's semantics. A diff here
// means generated inputs or evaluation changed, not merely a test
// artifact — investigate before updating the numbers.
func TestFrozenScenarioGoldenSizes(t *testing.T) {
	golden := map[string][]int{
		"union-negation-nomatch": {299, 243},
		"multi-output-atoms":     {58, 41, 131},
		"nested-two-level-dense": {300, 0, 239},
		"star-zipf":              {1, 1},
		"chain-three-deep":       {163, 104, 126},
		"union-wide-zipf":        {300},
		"chain-sparse-flowing":   {62, 29, 153},
		"nested-contradiction":   {0, 0, 0},
		"multi-negated-output":   {0, 0, 0, 272},
		"multi-mixed-boolean":    {0, 0, 238, 0},
		"skew-hot-union-zipf":    {300},
	}
	for _, f := range frozenScenarios {
		sc := f.scenario(t, 300)
		q, err := gumbo.Parse(sc.Source())
		if err != nil {
			t.Fatalf("%s: parse: %v", f.name, err)
		}
		out, err := gumbo.EvalAll(q, sc.Build())
		if err != nil {
			t.Fatalf("%s: refeval: %v", f.name, err)
		}
		want := golden[f.name]
		if len(want) != len(sc.Program.Queries) {
			t.Fatalf("%s: golden has %d entries for %d queries", f.name, len(want), len(sc.Program.Queries))
		}
		for i, query := range sc.Program.Queries {
			r := out.Relation(query.Name)
			if r == nil {
				t.Fatalf("%s: output %s missing", f.name, query.Name)
			}
			if r.Size() != want[i] {
				t.Errorf("%s: output %s has %d tuples, want %d", f.name, query.Name, r.Size(), want[i])
			}
		}
	}
}
