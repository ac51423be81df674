package lab

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/sgf"
)

func smallSweepConfig() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.Widths = []int{1, 2}
	cfg.Shrink = false
	return cfg
}

func checkClean(t *testing.T, rep *Report) {
	t.Helper()
	for _, f := range rep.Failures {
		t.Errorf("%s [%s] %s width %d boundary %d: %s", f.Scenario, f.Check, f.Strategy, f.Width, f.Boundary, f.Detail)
	}
}

// TestSweepSmallSeeds runs every check over the first six generated
// scenarios (every shape and data profile): none may fail. Not parallel
// — the sweep owns the process-wide fault seam.
func TestSweepSmallSeeds(t *testing.T) {
	const n = 6
	scfg := DefaultScenarioConfig()
	scfg.GuardTuples, scfg.CondTuples = 300, 300
	rep := RunSweep(GenScenarios(n, scfg), smallSweepConfig())
	checkClean(t, rep)
	// Every scenario must execute under at least the three any-program
	// strategies (they never plan-reject).
	byScenario := map[string]int{}
	for _, r := range rep.Runs {
		byScenario[r.Scenario]++
	}
	if len(byScenario) != n {
		t.Errorf("runs recorded for %d scenarios, want %d", len(byScenario), n)
	}
	for sc, count := range byScenario {
		if count < 3*2 {
			t.Errorf("scenario %s has only %d runs", sc, count)
		}
	}
}

// TestCancelSweepClean sweeps a few generated scenarios and requires
// every one to reach the lifecycle checks and tear down cleanly after
// each injection. It is the guard of the context thread from RunPlanCtx
// down to the engine's task grants: a fresh root context anywhere on it
// fails the cancel check. Not parallel — the sweep owns the
// process-wide fault seam.
func TestCancelSweepClean(t *testing.T) {
	const n = 3
	scfg := DefaultScenarioConfig()
	scfg.GuardTuples, scfg.CondTuples = 300, 300
	rep := RunSweep(GenScenarios(n, scfg), smallSweepConfig())
	if rep.Scenarios != n {
		t.Fatalf("swept %d scenarios, want %d", rep.Scenarios, n)
	}
	checkClean(t, rep)
	// Every scenario gets at least a cancel and a panic injection.
	if rep.Injections < 2*n {
		t.Errorf("%d lifecycle injections over %d scenarios, want at least %d", rep.Injections, n, 2*n)
	}
}

// TestSweepCalibrates: calibration over sweep records fits constants
// and reports errors no worse than the defaults on its own data. The
// asserted fit runs over seconds synthesised from each job's own
// CostSpec under a known perturbed config, so it tests the fitter; the
// sweep's host wall-clock timings (under -race as much scheduler noise
// as signal) only have to go through.
func TestSweepCalibrates(t *testing.T) {
	scfg := DefaultScenarioConfig()
	scfg.GuardTuples, scfg.CondTuples = 300, 300
	swcfg := smallSweepConfig()
	res := RunSweep(GenScenarios(3, scfg), swcfg)
	base := swcfg.BaseCostConfig()
	smoke, err := Calibrate(res.Runs, base)
	if err != nil {
		t.Fatal(err)
	}
	if smoke.Observations == 0 || len(smoke.Rows) == 0 {
		t.Fatalf("host timings: %d observations, %d per-scenario rows", smoke.Observations, len(smoke.Rows))
	}

	truth := base
	truth.JobOverhead *= 0.5
	truth.HDFSRead *= 1.7
	truth.LocalWrite *= 0.6
	truth.Transfer *= 1.3
	truth.HDFSWrite *= 2
	runs := append([]RunRecord(nil), res.Runs...)
	for ri, r := range runs {
		runs[ri].Timings = make([]mr.JobTiming, len(r.Stats))
		for i, st := range r.Stats {
			runs[ri].Timings[i].MapSeconds = truth.JobCost(cost.Gumbo, st.CostSpec())
		}
	}
	cal, err := Calibrate(runs, base)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Observations != smoke.Observations || len(cal.Rows) != len(smoke.Rows) {
		t.Errorf("synthesised timings: %d observations in %d rows, host timings %d in %d",
			cal.Observations, len(cal.Rows), smoke.Observations, len(smoke.Rows))
	}
	if cal.DefaultErr < 0.05 {
		t.Errorf("base config already within %.4f of the perturbed one: the fit is not tested", cal.DefaultErr)
	}
	if cal.FittedErr > cal.DefaultErr || cal.FittedErr > 0.01 {
		t.Errorf("fitted error %.4f (default %.4f), want ≤ 0.01 on noiseless data", cal.FittedErr, cal.DefaultErr)
	}
}

// TestShrinkMinimizes: the shrinker reduces a failing scenario to a
// minimal one under a synthetic predicate (failure = the program still
// mentions relation S0 and the guard data is above the floor).
func TestShrinkMinimizes(t *testing.T) {
	sc := GenScenario(1, DefaultScenarioConfig())
	fails := func(c Scenario) bool {
		return strings.Contains(c.Program.String(), "S0(") && c.GuardTuples >= 8
	}
	if !fails(sc) {
		t.Skip("seed 1 scenario no longer mentions S0")
	}
	min := Shrink(sc, fails)
	if !fails(min) {
		t.Fatal("shrunk scenario no longer fails")
	}
	// Halving from 2000 bottoms out at 15: one more halving gives 7,
	// which passes the predicate, so 15 is the 1-minimal size.
	if min.GuardTuples != 15 {
		t.Errorf("guard tuples not minimized: %d, want 15", min.GuardTuples)
	}
	if err := sgf.Validate(min.Program); err != nil {
		t.Errorf("shrunk program invalid: %v", err)
	}
	// 1-minimality: no single candidate reduction still fails.
	for _, cand := range shrinkCandidates(min) {
		if sgf.Validate(cand.Program) == nil && fails(cand) {
			t.Errorf("not minimal: candidate still fails:\n%s", cand.Program)
		}
	}
}

// TestReportWriters exercises the TSV/JSON writers on a real sweep.
func TestReportWriters(t *testing.T) {
	scfg := DefaultScenarioConfig()
	scfg.GuardTuples, scfg.CondTuples = 200, 200
	swcfg := smallSweepConfig()
	swcfg.Widths = []int{1}
	rep := RunSweep(GenScenarios(2, scfg), swcfg)
	var err error
	if rep.Calibration, err = Calibrate(rep.Runs, swcfg.BaseCostConfig()); err != nil {
		t.Fatal(err)
	}
	var tsv, ctsv, js strings.Builder
	if err := rep.WriteRunsTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCalibrationTSV(&ctsv); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tsv.String(), "scenario\tshape\tprofile\tstrategy\twidth") {
		t.Error("runs TSV missing header")
	}
	if !strings.Contains(ctsv.String(), "TOTAL") {
		t.Error("calibration TSV missing TOTAL row")
	}
	if !strings.Contains(js.String(), "\"Calibration\"") {
		t.Error("JSON missing calibration")
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}
