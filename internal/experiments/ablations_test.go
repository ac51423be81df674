package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
)

func TestAblationPacking(t *testing.T) {
	tbl, err := AblationPacking(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	on, off := tbl.Rows[0], tbl.Rows[1]
	if cell(t, on[3]) >= cell(t, off[3]) {
		t.Errorf("packing did not cut comm: %s vs %s", on[3], off[3])
	}
	if cell(t, on[4]) >= cell(t, off[4]) {
		t.Errorf("packing did not cut records: %s vs %s", on[4], off[4])
	}
}

func TestAblationTupleID(t *testing.T) {
	tbl, err := AblationTupleID(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ids, full := tbl.Rows[0], tbl.Rows[1]
	if cell(t, ids[3]) >= cell(t, full[3]) {
		t.Errorf("tuple ids did not cut comm: %s vs %s", ids[3], full[3])
	}
}

func TestAblationReducerAllocation(t *testing.T) {
	tbl, err := AblationReducerAllocation(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	gumboRow, pigRow := tbl.Rows[0], tbl.Rows[1]
	if cell(t, gumboRow[1]) > cell(t, pigRow[1]) {
		t.Errorf("intermediate-based allocation net %s should not exceed input-based %s",
			gumboRow[1], pigRow[1])
	}
}

// TestAblationSkew asserts what E11d measured: both mitigations shrink
// the heaviest reduce task, only salting lowers modelled net time (a
// range cut leaves per-reducer loads alone), and on a single hot key
// salting's heaviest task is no larger than splitting's — a cut can
// isolate the hot key's group, never divide it.
func TestAblationSkew(t *testing.T) {
	tbl, err := AblationSkew(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want plain / salted / runtime split", len(tbl.Rows))
	}
	plain, salted, split := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	mb := func(s string) float64 { return cell(t, strings.TrimSuffix(s, "MB")) }
	if mb(salted[5]) >= mb(plain[5]) || mb(split[5]) >= mb(plain[5]) {
		t.Errorf("max reduce task not shrunk by both: plain %s salted %s split %s", plain[5], salted[5], split[5])
	}
	if mb(salted[5]) > mb(split[5]) {
		t.Errorf("salting's heaviest task %s exceeds splitting's %s on a single hot key", salted[5], split[5])
	}
	if cell(t, salted[1]) >= cell(t, plain[1]) {
		t.Errorf("salting did not lower net time: %s vs %s", salted[1], plain[1])
	}
	if split[1] != plain[1] || split[3] != plain[3] || split[4] != plain[4] {
		t.Errorf("runtime splitting moved net time or reducer loads: %v vs %v", split, plain)
	}
	pi := strings.TrimSuffix(plain[4], "x")
	si := strings.TrimSuffix(salted[4], "x")
	if cell(t, si) >= cell(t, pi) {
		t.Errorf("salting did not improve imbalance: %s vs %s", salted[4], plain[4])
	}
}

func TestAblationDynamic(t *testing.T) {
	tbl, err := AblationDynamic(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	static, dyn := tbl.Rows[0], tbl.Rows[1]
	if cell(t, dyn[2]) > 1.5*cell(t, static[2]) {
		t.Errorf("dynamic total %s far above static %s", dyn[2], static[2])
	}
}

func TestAblationsCombined(t *testing.T) {
	tbl, err := Ablations(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Errorf("combined ablations rows = %d", len(tbl.Rows))
	}
}

func dynamicSetup(t *testing.T) (*exec.Runner, *relation.Database, *sgf.Program) {
	t.Helper()
	db := relation.NewDatabase()
	for _, g := range []string{"R", "G", "H"} {
		db.Put(data.GuardSpec{Name: g, Arity: 4, Tuples: 3000, Seed: int64(len(g))}.Generate())
	}
	guard := db.Relation("R")
	for i, c := range []string{"S", "T", "U"} {
		db.Put(data.CondSpec{Name: c, Arity: 1, Tuples: 1500, Guard: guard, Col: i, MatchFrac: 0.5, Seed: int64(i + 9)}.Generate())
	}
	prog := sgf.MustParse(`
		Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);
		Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);
		Z3 := SELECT x FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);
		Z4 := SELECT x FROM H(x, y, z, w) WHERE Z2(x) AND U(y);`)
	return exec.NewRunner(mr.Config{Cost: cost.Default().Scaled(0.001)}, cluster.DefaultConfig()), db, prog
}

func TestRunDynamicSGFCorrect(t *testing.T) {
	runner, db, prog := dynamicSetup(t)
	want, err := refeval.EvalProgram(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runDynamicSGF(context.Background(), runner, prog, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range prog.Queries {
		got := res.Outputs.Relation(q.Name)
		if got == nil || !got.Equal(want.Relation(q.Name)) {
			t.Errorf("dynamic output %s wrong", q.Name)
		}
	}
	if res.Metrics.NetTime <= 0 || res.Metrics.TotalTime < res.Metrics.NetTime {
		t.Errorf("metrics wrong: %+v", res.Metrics)
	}
	if res.Plan.Strategy != strategyDynamic {
		t.Errorf("strategy = %v", res.Plan.Strategy)
	}
}

func TestRunDynamicUsesMaterializedSizes(t *testing.T) {
	// After round one, Z1 exists in the working database, so the
	// estimator sees its true (small) size rather than the guard-size
	// upper bound. The run must complete and produce multiple rounds.
	runner, db, prog := dynamicSetup(t)
	res, err := runDynamicSGF(context.Background(), runner, prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3 (two planning rounds + EVALs)", res.Metrics.Rounds)
	}
	if len(res.JobStats) < 4 {
		t.Errorf("jobs = %d", len(res.JobStats))
	}
}

func TestRunDynamicVsStaticComparable(t *testing.T) {
	// The dynamic strategy should never be wildly worse than static
	// Greedy-SGF (same building blocks, better information).
	runner, db, prog := dynamicSetup(t)
	dyn, err := runDynamicSGF(context.Background(), runner, prog, db)
	if err != nil {
		t.Fatal(err)
	}
	est := core.NewEstimator(runner.Engine.Config().Cost, cost.Gumbo, db, prog)
	static, err := est.GreedySGFPlan("static", prog)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := runner.Run(context.Background(), static, db, mr.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Metrics.TotalTime > 1.5*sres.Metrics.TotalTime {
		t.Errorf("dynamic total %.0f far above static %.0f",
			dyn.Metrics.TotalTime, sres.Metrics.TotalTime)
	}
}

func TestRunDynamicRejectsInvalidProgram(t *testing.T) {
	runner, db, _ := dynamicSetup(t)
	bad := &sgf.Program{Queries: []*sgf.BSGF{{
		Name:   "Z",
		Select: []string{"q"},
		Guard:  sgf.NewAtom("R", sgf.V("x")),
	}}}
	if _, err := runDynamicSGF(context.Background(), runner, bad, db); err == nil {
		t.Error("invalid program accepted")
	}
}
