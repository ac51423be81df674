package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/workload"
)

// CostModelExperiment reproduces the §5.2 "Cost Model" comparison: the
// adversarial 48-atom filtering query is planned by Greedy-BSGF once
// under the per-partition model (cost_gumbo) and once under the
// aggregate model (cost_wang); both plans are executed and their
// measured times compared. The paper reports cost_gumbo's plan saving
// 43% total and 71% net time.
func CostModelExperiment(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "§5.2 Cost Model: GREEDY planned under cost_gumbo vs cost_wang",
		Header: []string{"planner model", "msj jobs", "net", "total", "comm"},
	}
	wl := workload.CostModel()
	db := wl.Build(cfg.Scale)
	runner := cfg.runner()
	type planned struct {
		model cost.Model
		net   float64
		total float64
	}
	var outcomes []planned
	for _, model := range []cost.Model{cost.Gumbo, cost.Wang} {
		est := core.NewEstimator(cfg.CostCfg, model, db, wl.Program)
		plan, err := est.GreedyPlan(fmt.Sprintf("%s-%v", wl.Name, model), wl.Program.Queries)
		if err != nil {
			return nil, err
		}
		res, err := runner.Run(ctx, plan, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		m := cfg.paperMetrics(res.Metrics)
		t.AddRow(model.String(), fmt.Sprint(len(plan.Jobs)-1),
			fmtSecs(m.NetTime), fmtSecs(m.TotalTime), fmtGB(m.CommMB))
		outcomes = append(outcomes, planned{model, m.NetTime, m.TotalTime})
		cfg.logf("%-10s %-10v %s", wl.Name, model, m)
	}
	g, w := outcomes[0], outcomes[1]
	if w.total > 0 && w.net > 0 {
		t.AddNote("cost_gumbo plan vs cost_wang plan: total %+.0f%%, net %+.0f%% (paper: -43%% total, -71%% net)",
			100*(g.total-w.total)/w.total, 100*(g.net-w.net)/w.net)
	}
	return t, nil
}

// RankingAccuracy reproduces the §5.2 job-ranking comparison: "when
// comparing two random jobs, the cost models correctly identify the
// highest cost job in 72.28% (cost_gumbo) and 69.37% (cost_wang) of the
// cases". Candidate MSJ jobs are random equation groups drawn from the
// A-queries; each model's *estimated* cost (from sampled sizes) ranks
// job pairs, scored against the measured cost of the executed jobs.
func RankingAccuracy(ctx context.Context, cfg Config, jobCount int) (*Table, error) {
	if jobCount <= 1 {
		jobCount = 24
	}
	t := &Table{
		ID:     "E9b",
		Title:  "§5.2 Cost Model: pairwise job-ranking accuracy",
		Header: []string{"model", "correct pairs", "accuracy"},
	}
	rng := rand.New(rand.NewSource(7))
	runner := cfg.runner()

	type job struct {
		gumboEst, wangEst, actual float64
	}
	var jobs []job
	// The pool mixes the proportional A/B queries (where the paper notes
	// both models behave similarly) with the non-proportional §5.2
	// adversarial query (where they diverge).
	wls := append(workload.AQueries(), workload.B1(), workload.CostModel(), workload.CostModel())
	for len(jobs) < jobCount {
		wl := wls[rng.Intn(len(wls))]
		db := wl.Build(cfg.Scale * (0.5 + rng.Float64()))
		gumboEst := core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
		wangEst := core.NewEstimator(cfg.CostCfg, cost.Wang, db, wl.Program)
		eqs := core.ExtractEquations(wl.Program.Queries)
		// Random non-empty equation group.
		var group []int
		for i := range eqs {
			if rng.Intn(2) == 0 {
				group = append(group, i)
			}
		}
		if len(group) == 0 {
			group = []int{rng.Intn(len(eqs))}
		}
		sub := make([]core.Equation, len(group))
		for i, gi := range group {
			sub[i] = eqs[gi]
		}
		mjob, err := core.NewMSJJob(fmt.Sprintf("rank-%d", len(jobs)), sub)
		if err != nil {
			return nil, err
		}
		_, stats, _, err := runner.Engine.Run(ctx, &mr.Program{Jobs: []*mr.Job{mjob}}, db, mr.RunOptions{})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{
			gumboEst: gumboEst.MSJCost(eqs, group),
			wangEst:  wangEst.MSJCost(eqs, group),
			actual:   cfg.CostCfg.JobCost(cost.Gumbo, stats[0].CostSpec()),
		})
		cfg.logf("rank job %d: est g=%.1f w=%.1f actual=%.1f", len(jobs), jobs[len(jobs)-1].gumboEst, jobs[len(jobs)-1].wangEst, jobs[len(jobs)-1].actual)
	}
	// Pairs of wildly different jobs are ranked correctly by any model;
	// the models' quality shows on close pairs (actual costs within 2×),
	// which are also the pairs that decide groupings.
	var pairs, gumboOK, wangOK int
	var closePairs, gumboCloseOK, wangCloseOK int
	for i := 0; i < len(jobs); i++ {
		for j := i + 1; j < len(jobs); j++ {
			if jobs[i].actual == jobs[j].actual {
				continue
			}
			pairs++
			actualGreater := jobs[i].actual > jobs[j].actual
			gOK := (jobs[i].gumboEst > jobs[j].gumboEst) == actualGreater
			wOK := (jobs[i].wangEst > jobs[j].wangEst) == actualGreater
			if gOK {
				gumboOK++
			}
			if wOK {
				wangOK++
			}
			hi, lo := jobs[i].actual, jobs[j].actual
			if lo > hi {
				hi, lo = lo, hi
			}
			if lo > 0 && hi/lo < 2 {
				closePairs++
				if gOK {
					gumboCloseOK++
				}
				if wOK {
					wangCloseOK++
				}
			}
		}
	}
	if pairs == 0 {
		return nil, fmt.Errorf("experiments: no comparable job pairs")
	}
	pct := func(ok, n int) string {
		if n == 0 {
			return "n/a"
		}
		return fmtPct(float64(ok) / float64(n))
	}
	t.Header = []string{"model", "all pairs", "accuracy", "close pairs (<2x)", "accuracy"}
	t.AddRow("cost_gumbo", fmt.Sprintf("%d/%d", gumboOK, pairs), pct(gumboOK, pairs),
		fmt.Sprintf("%d/%d", gumboCloseOK, closePairs), pct(gumboCloseOK, closePairs))
	t.AddRow("cost_wang", fmt.Sprintf("%d/%d", wangOK, pairs), pct(wangOK, pairs),
		fmt.Sprintf("%d/%d", wangCloseOK, closePairs), pct(wangCloseOK, closePairs))
	t.AddNote("paper: 72.28%% (gumbo) vs 69.37%% (wang); ground truth here is the measured-size job cost, see EXPERIMENTS.md")
	return t, nil
}

// OptimalVsGreedy reproduces the E10 check: on the A-queries the greedy
// partitions and multiway sorts are compared against brute-force optima
// (Theorems 1 and 2 make the exact problems NP-hard; the instances here
// are small enough to enumerate).
func OptimalVsGreedy(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Greedy-BSGF vs brute-force OPT (estimated plan cost)",
		Header: []string{"query", "greedy partition", "greedy cost", "opt cost", "ratio"},
	}
	for _, wl := range workload.AQueries() {
		db := wl.Build(cfg.Scale)
		est := core.NewEstimator(cfg.CostCfg, cost.Gumbo, db, wl.Program)
		eqs := core.ExtractEquations(wl.Program.Queries)
		greedyPart := est.GreedyBSGF(eqs)
		greedyCost := est.PartitionCost(eqs, greedyPart)
		_, optCost, err := est.BruteForceBSGF(eqs)
		if err != nil {
			return nil, err
		}
		ratio := 1.0
		if optCost > 0 {
			ratio = greedyCost / optCost
		}
		t.AddRow(wl.Name, core.PartitionString(greedyPart),
			fmt.Sprintf("%.1f", greedyCost), fmt.Sprintf("%.1f", optCost),
			fmt.Sprintf("%.3f", ratio))
	}
	t.AddNote("ratio 1.000 means the greedy heuristic found an optimal grouping")
	return t, nil
}
