// Package exec runs core.Plans: it executes the plan's MapReduce jobs on
// the in-process engine (producing exact outputs and measured byte
// counts), then replays the measured per-task costs through the cluster
// simulator to obtain the paper's net-time and total-time metrics.
package exec

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/relation"
)

// Runner executes plans under one configuration.
//
// A Runner is immutable and safe for concurrent use: Run keeps all
// per-run state on its own stack (the engine only reads the input
// database and returns a fresh one of outputs, and jobs/stats/simulation
// are local), so any number of goroutines may call Run on one Runner
// simultaneously.
// gumbo.System relies on this to serve concurrent System.Run calls over
// a single shared Runner.
type Runner struct {
	Engine  *mr.Engine
	Cluster cluster.Config
}

// NewRunner wires an engine built from cfg and a simulated cluster
// together. cfg.Cost is used both by the engine (splits, reducer
// allocation) and for task-time derivation.
func NewRunner(cfg mr.Config, clusterCfg cluster.Config) *Runner {
	return &Runner{Engine: mr.NewEngine(cfg), Cluster: clusterCfg}
}

// Result is the outcome of running one plan.
type Result struct {
	Plan     *core.Plan
	Outputs  *relation.Database // every relation the plan produced
	JobStats []mr.JobStats
	// Timings holds the measured per-job task wall-clock, aligned with
	// JobStats. Host measurements, not modelled quantities: they vary run
	// to run and are excluded from the determinism contract (see
	// mr.JobTiming).
	Timings []mr.JobTiming
	// Mem is the run's memory accounting: bytes charged against the
	// query budget at the engine's accounted allocation sites, and spill
	// activity. Charged/Spilled totals are modelled quantities —
	// schedule-independent like JobStats (see mr.Budget).
	Mem     mr.MemStats
	Metrics mr.Metrics
}

// Run executes the plan against db, honoring ctx: the engine stops at
// the next task boundary after cancellation and the returned error
// wraps ctx.Err() (errors.Is-compatible with context.Canceled /
// DeadlineExceeded; see mr.Engine.Run for the full contract).
// opts.Progress, when non-nil, is the run's task record (Result.Timings
// is a fold over it); opts.Budget is charged the run's bulk allocations. A nil budget runs
// unlimited but still accounted, so Result.Mem is always populated.
// When the run charges past the budget's limit it aborts with an error
// matching mr.ErrBudgetExceeded (errors.Is), nil Result, and the input
// database untouched.
func (r *Runner) Run(ctx context.Context, plan *core.Plan, db *relation.Database, opts mr.RunOptions) (*Result, error) {
	if opts.Budget == nil {
		opts.Budget = mr.NewBudget(0)
	}
	outputs, stats, timings, err := r.Engine.Run(ctx, plan.Program(), db, opts)
	if err != nil {
		return nil, fmt.Errorf("exec: plan %s: %w", plan.Name, err)
	}
	if len(stats) != len(plan.Jobs) {
		return nil, fmt.Errorf("exec: plan %s: %d jobs but %d stats", plan.Name, len(plan.Jobs), len(stats))
	}
	return &Result{
		Plan:     plan,
		Outputs:  outputs,
		JobStats: stats,
		Timings:  timings,
		Mem:      opts.Budget.Stats(),
		Metrics:  r.Metrics(plan, stats),
	}, nil
}

// Metrics derives a run's §5.1 metrics: the measured byte volumes of
// stats, and the modelled net/total times of replaying each job's
// per-task costs through the cluster simulator on plan's dependency
// graph, derived once (plan.Deps; plan.Jobs is index-aligned with
// stats), which also gives the rounds.
func (r *Runner) Metrics(plan *core.Plan, stats []mr.JobStats) mr.Metrics {
	costCfg := r.Engine.Config().Cost
	scale := costCfg.Scale
	if scale <= 0 {
		scale = 1
	}
	deps := plan.Deps()
	jobs := make([]cluster.Job, len(stats))
	var m mr.Metrics
	for i, st := range stats {
		taskPlan := costCfg.TasksLoaded(st.CostSpec(), st.ReduceLoadMB)
		// Baseline engine handicaps: slower tasks and extra per-job
		// startup latency (mr.Job.TimeFactor / ExtraOverheadSec).
		if f := plan.Jobs[i].TimeFactor; f > 0 && f != 1 {
			for ti := range taskPlan.MapTasks {
				taskPlan.MapTasks[ti] *= f
			}
			for ti := range taskPlan.ReduceTasks {
				taskPlan.ReduceTasks[ti] *= f
			}
		}
		taskPlan.Overhead += plan.Jobs[i].ExtraOverheadSec * scale
		jobs[i] = cluster.Job{Name: st.Name, Plan: taskPlan, Deps: deps[i]}
		m.Add(st)
	}
	sim := cluster.Simulate(r.Cluster, jobs)
	m.NetTime = sim.NetTime
	m.TotalTime = sim.TotalTime
	m.Rounds = core.Rounds(deps)
	return m
}

// PredictPlanBytes estimates, before running, how many bytes a plan's
// execution will charge against its budget: the deduplicated base-input
// bytes (shuffle partitions hold roughly what the mappers read) plus the
// sampled intermediate bytes (mr.Sample), packing included, of every job
// whose inputs are all in db (a job reading a relation the plan produces
// cannot be sampled before the run; the admission ladder only needs a
// same-order figure, not a bound). Used by the server to size a query's
// initial reservation against the global memory budget.
func (r *Runner) PredictPlanBytes(plan *core.Plan, db *relation.Database) int64 {
	var total int64
	seen := make(map[string]bool)
	for _, job := range plan.Jobs {
		for _, name := range job.Inputs {
			if rel := db.Relation(name); rel != nil && !seen[name] {
				seen[name] = true
				total += rel.Bytes()
			}
		}
		counts, err := mr.Sample(job, db) // err: an input is produced by the plan
		if err != nil {
			continue
		}
		for _, c := range counts {
			if c.Sampled > 0 {
				total += int64(float64(c.Bytes) * float64(c.Tuples) / float64(c.Sampled))
			}
		}
	}
	return total
}
