package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

// AblationPacking isolates §5.1 optimization (1): the same GREEDY plan
// for A3 (all atoms share a join key, the best case for packing) with
// message packing enabled vs disabled.
func AblationPacking(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11a",
		Title:  "Ablation: message packing (A3, grouped MSJ)",
		Header: []string{"packing", "net", "total", "comm", "records"},
	}
	wl := workload.A3()
	db := wl.Build(cfg.Scale)
	runner := cfg.runner()
	est := core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
	for _, packing := range []bool{true, false} {
		plan, err := est.GreedyPlan(fmt.Sprintf("pack=%v", packing), wl.Program.Queries)
		if err != nil {
			return nil, err
		}
		for _, j := range plan.Jobs {
			j.Packing = packing
		}
		res, err := runner.Run(ctx, plan, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		var records int64
		for _, st := range res.JobStats {
			records += st.Records()
		}
		m := cfg.paperMetrics(res.Metrics)
		t.AddRow(fmt.Sprint(packing), fmtSecs(m.NetTime), fmtSecs(m.TotalTime),
			fmtGB(m.CommMB), fmt.Sprint(records))
	}
	t.AddNote("packing collapses same-key request/assert messages of one map task into one record")
	return t, nil
}

// AblationTupleID isolates §5.1 optimization (2): MSJ outputs as guard
// tuple ids (with a guard re-read in EVAL) vs full-tuple semi-join
// outputs combined on whole tuples (the unoptimized shape, here built
// from the baseline building blocks with all engine handicaps removed).
func AblationTupleID(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11b",
		Title:  "Ablation: tuple-id references vs full-tuple shuffles (A1, PAR shape)",
		Header: []string{"mode", "net", "total", "comm"},
	}
	wl := workload.A1()
	db := wl.Build(cfg.Scale)
	runner := cfg.runner()

	idPlan, err := core.ParPlan("ids", wl.Program.Queries)
	if err != nil {
		return nil, err
	}
	fullPlan, err := baselines.FullTuplePlan("full", wl.Program.Queries)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		plan *core.Plan
	}{{"tuple ids", idPlan}, {"full tuples", fullPlan}} {
		res, err := runner.Run(ctx, c.plan, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		m := cfg.paperMetrics(res.Metrics)
		t.AddRow(c.name, fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmtGB(m.CommMB))
	}
	t.AddNote("ids shuffle 12-byte references and re-read the guard in EVAL; full tuples shuffle whole facts and join on them")
	return t, nil
}

// AblationReducerAllocation isolates §5.1 optimization (3):
// intermediate-size-based reducer counts vs Pig-style input-based
// allocation, on the same Gumbo GREEDY plan.
func AblationReducerAllocation(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11c",
		Title:  "Ablation: reducer allocation policy (A1, GREEDY plan)",
		Header: []string{"policy", "net", "total", "reducers"},
	}
	wl := workload.A1()
	db := wl.Build(cfg.Scale)
	runner := cfg.runner()
	est := core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
	for _, c := range []struct {
		name    string
		inputMB float64 // mr.Job.ReducerInputMB; 0 = intermediate-based
	}{{"intermediate-based (Gumbo)", 0}, {"input-based 1GB (Pig)", 1024}} {
		plan, err := est.GreedyPlan(c.name, wl.Program.Queries)
		if err != nil {
			return nil, err
		}
		for _, j := range plan.Jobs {
			j.ReducerInputMB = c.inputMB
		}
		res, err := runner.Run(ctx, plan, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		reducers := 0
		for _, st := range res.JobStats {
			reducers += st.Reducers
		}
		m := cfg.paperMetrics(res.Metrics)
		t.AddRow(c.name, fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmt.Sprint(reducers))
	}
	return t, nil
}

// AblationSkew compares the two answers to a heavy reduce partition on
// a guard with one hot join value: the paper's §6 plan-level salting
// and the engine's runtime splitting, which cuts the heavy partition at
// group boundaries after one gather, against the plain MSJ plan. A cut
// can give the hot key a piece of its own but never divide it (a key
// group is one Reduce call), so splitting shrinks the heaviest task
// only down to the hot key's own group and leaves the per-reducer
// loads — and with them the modelled net time — untouched; salting
// divides the group itself.
func AblationSkew(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11d",
		Title:  "Ablation: heavy-hitter mitigation (skewed guard, 40% hot key)",
		Header: []string{"mode", "net", "total", "max reducer load", "imbalance", "max reduce task"},
	}
	db := skewedDatabase(int(float64(workload.PaperGuardTuples)*cfg.Scale), 0.4, 11)
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y) WHERE S(x);`)
	eqs := core.ExtractEquations(prog.Queries)
	plain, err := core.BasicPlan("plain", core.StrategyGreedy, prog.Queries, eqs, core.OneGroup(len(eqs)), nil)
	if err != nil {
		return nil, err
	}
	salted, err := core.SkewAwareBasicPlan("salted", core.StrategyGreedy, prog.Queries, eqs,
		core.OneGroup(len(eqs)), db)
	if err != nil {
		return nil, err
	}
	runner := cfg.runner()
	splitCfg := runner.Engine.Config()
	splitCfg.SkewSplit = 1.5
	splitting := exec.NewRunner(splitCfg, cfg.Cluster)
	for _, c := range []struct {
		name   string
		plan   *core.Plan
		runner *exec.Runner
	}{{"plain MSJ", plain, runner}, {"salted MSJ", salted, runner}, {"runtime split 1.5", plain, splitting}} {
		res, err := c.runner.Run(ctx, c.plan, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		msj := res.JobStats[0]
		m := cfg.paperMetrics(res.Metrics)
		t.AddRow(c.name, fmtSecs(m.NetTime), fmtSecs(m.TotalTime),
			fmt.Sprintf("%.1fMB", msj.MaxReduceLoadMB()),
			fmt.Sprintf("%.2fx", msj.ReduceImbalance()),
			fmt.Sprintf("%.3fMB", msj.MaxReduceTaskMB))
	}
	t.AddNote("salting spreads a heavy key's requests over sub-keys and replicates the small asserts (§6); runtime splitting cuts the hot partition at group boundaries after one gather, into pieces of whole key groups")
	return t, nil
}

// AblationDynamic compares static Greedy-SGF planning against the
// dynamic re-planning strategy of §4.6's closing note on the C2 query
// set.
func AblationDynamic(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11e",
		Title:  "Ablation: static Greedy-SGF vs dynamic re-planning (C2)",
		Header: []string{"mode", "net", "total", "jobs"},
	}
	wl := workload.C2()
	db := wl.Build(cfg.Scale)
	runner := cfg.runner()
	est := core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
	static, err := est.GreedySGFPlan("static", wl.Program)
	if err != nil {
		return nil, err
	}
	sres, err := runner.Run(ctx, static, db, mr.RunOptions{})
	if err != nil {
		return nil, err
	}
	dres, err := runDynamicSGF(ctx, runner, wl.Program, db)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		m    mr.Metrics
		jobs int
	}{
		{"static GREEDY-SGF", sres.Metrics, len(sres.JobStats)},
		{"dynamic re-planning", dres.Metrics, len(dres.JobStats)},
	} {
		m := cfg.paperMetrics(c.m)
		t.AddRow(c.name, fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmt.Sprint(c.jobs))
	}
	t.AddNote("dynamic planning re-runs Greedy-SGF after each group against materialized intermediate sizes")
	return t, nil
}

// strategyDynamic labels the dynamic evaluation strategy of §4.6's
// closing note: "a naive dynamic evaluation strategy may consist of
// re-running Greedy-SGF after each BSGF evaluation in order to obtain an
// updated MR query plan". runDynamicSGF implements it at group
// granularity: after each executed group the remaining program is
// re-planned against the *materialized* intermediate relations, so the
// estimator works from real sizes instead of upper bounds.
const strategyDynamic core.Strategy = "DYNAMIC"

// runDynamicSGF evaluates prog with iterative re-planning. Each
// iteration runs Greedy-SGF on the not-yet-evaluated queries (whose
// dependencies are now materialized), executes the first group with a
// Greedy-BSGF plan, and folds the outputs back into the database. The
// groups' jobs are stitched into one plan whose dependency graph is the
// simulated schedule, so the result's metrics come from one cluster
// simulation of the whole run.
func runDynamicSGF(ctx context.Context, r *exec.Runner, prog *sgf.Program, db *relation.Database) (*exec.Result, error) {
	if err := sgf.Validate(prog); err != nil {
		return nil, err
	}
	working := relation.NewDatabase()
	for _, rel := range db.Relations() {
		working.Put(rel)
	}
	outputs := relation.NewDatabase()
	var allStats []mr.JobStats

	remaining := append([]*sgf.BSGF(nil), prog.Queries...)
	round := 0
	resultPlan := &core.Plan{Name: "dynamic", Strategy: strategyDynamic}
	costCfg := r.Engine.Config().Cost
	for len(remaining) > 0 {
		round++
		sub := &sgf.Program{Queries: remaining}
		// Re-plan against current materialized state.
		est := core.NewEstimator(costCfg, cost.Gumbo, working, sub)
		sort := core.GreedySGF(sub)
		if len(sort) == 0 {
			return nil, fmt.Errorf("experiments: dynamic planning produced no groups")
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
		// Every group after the first opens at a barrier: its jobs wait
		// for every job of the previous group, which is no longer than
		// waiting for that group's EVAL job, since EVAL waits for the rest.
		if round > 1 {
			resultPlan.Barriers = append(resultPlan.Barriers, len(resultPlan.Jobs))
		}
		resultPlan.Jobs = append(resultPlan.Jobs, plan.Jobs...)
		allStats = append(allStats, stats...)

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
	return &exec.Result{
		Plan:     resultPlan,
		Outputs:  outputs,
		JobStats: allStats,
		Metrics:  r.Metrics(resultPlan, allStats),
	}, nil
}

// skewedDatabase builds the skewed guard + conditional pair used by the
// skew ablation.
func skewedDatabase(n int, hotShare float64, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	guard := relation.New("R", 2)
	hot := relation.Value(7)
	id := int64(0)
	for guard.Size() < n {
		id++
		x := hot
		if rng.Float64() >= hotShare {
			x = relation.Value(100 + rng.Int63n(int64(n)*4))
		}
		guard.Add(relation.Tuple{x, relation.Value(id)})
	}
	cond := relation.New("S", 1)
	cond.Add(relation.Tuple{hot})
	for cond.Size() < n/10+1 {
		cond.Add(relation.Tuple{relation.Value(100 + rng.Int63n(int64(n)*4))})
	}
	db := relation.NewDatabase()
	db.Put(guard)
	db.Put(cond)
	return db
}

// Ablations runs all ablation tables and concatenates them.
func Ablations(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Ablations of Gumbo's design choices",
		Header: []string{"ablation", "variant", "net", "total", "detail"},
	}
	type runner func(context.Context, Config) (*Table, error)
	for _, sub := range []runner{AblationPacking, AblationTupleID, AblationReducerAllocation, AblationSkew, AblationDynamic} {
		st, err := sub(ctx, cfg)
		if err != nil {
			return nil, err
		}
		for _, row := range st.Rows {
			detail := ""
			if len(row) > 3 {
				detail = row[len(row)-1]
			}
			t.AddRow(st.ID, row[0], row[1], row[2], detail)
		}
		t.Notes = append(t.Notes, st.ID+": "+st.Title)
	}
	return t, nil
}
