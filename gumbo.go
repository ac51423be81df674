// Package gumbo is a Go implementation of Gumbo, the system of
// "Parallel Evaluation of Multi-Semi-Joins" (Daenen, Neven, Tan,
// Vansummeren; VLDB 2016): parallel evaluation of Strictly Guarded
// Fragment (SGF) queries with the multi-semi-join MapReduce operator
// MSJ, cost-based job grouping (Greedy-BSGF), and multiway topological
// sorting of subqueries (Greedy-SGF).
//
// The package evaluates SGF queries over in-memory relations on an
// in-process MapReduce engine that measures the byte quantities of the
// paper's cost model and derives simulated net/total times on a
// configurable virtual cluster. On the host, a plan executes as one
// unified task graph: map tasks, shuffle partitions, reduce partitions
// and output merge shards of all of its jobs are scheduled together on
// a single work-stealing worker pool, with producer→consumer edges
// wired per input relation — a dependent job's map tasks over a
// relation start the moment that relation is merged, overlapping phases
// of dependent jobs instead of waiting at job barriers. The
// WithHostWorkers option sizes the pool. Results are deterministic at
// every parallelism setting. A minimal session:
//
//	q, _ := gumbo.Parse(`Z := SELECT x, y FROM R(x, y) WHERE S(x) AND T(y);`)
//	db := gumbo.NewDatabase()
//	db.Put(gumbo.NewRelation("R", 2)) // fill with Add(...)
//	...
//	sys := gumbo.New()
//	res, _ := sys.Run(q, db, gumbo.Greedy)
//	fmt.Println(res.Relation, res.Metrics)
package gumbo

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// Re-exported relational types. Values are int64 handles; use Int and
// Str to construct them and Value.Text to render them.
type (
	// Value is a single data value.
	Value = relation.Value
	// Tuple is an ordered sequence of values. A Tuple obtained from a
	// Relation (Tuple, Tuples, Each, Sorted) is a read-only view into
	// the relation's storage: valid for the relation's lifetime, to be
	// copied (Clone) before being modified.
	Tuple = relation.Tuple
	// Relation is a named set of tuples of fixed arity, in insertion
	// order. Add, AddAll and FromTuples copy the values in.
	Relation = relation.Relation
	// Database is a named collection of relations.
	Database = relation.Database
	// Metrics carries the four §5.1 performance metrics of a run.
	Metrics = mr.Metrics
	// JobStats carries the measured quantities of one executed MapReduce
	// job (per-input N_i/M_i, record counts, output K, task counts,
	// per-reducer loads).
	JobStats = mr.JobStats
	// JobTiming carries the measured host wall-clock spent in one job's
	// tasks, by kind: a fold over the run's task record. Unlike JobStats
	// it is a measurement of the host and outside the determinism
	// contract.
	JobTiming = mr.JobTiming
	// Progress is the task record of one run: every task's measured
	// span and the spawned and finished task counts. Pass a fresh
	// *Progress in RunOptions to poll Snapshot from any goroutine while
	// the run executes, or to read CriticalPath once it returns. The
	// zero value is ready to use.
	Progress = mr.Progress
	// CriticalPath is a run's work and span (see Progress.CriticalPath).
	CriticalPath = mr.CriticalPath
	// ProgressSnapshot is a point-in-time copy of a run's task counters.
	ProgressSnapshot = mr.ProgressSnapshot
	// Budget is a per-query memory budget: the engine charges a run's
	// bulk allocations (arena chunks, shuffle partitions, merge shards,
	// spill buffers) against it and aborts the run with
	// ErrBudgetExceeded when the cumulative total passes the limit.
	// Charges are modelled quantities — a given plan over a given
	// database charges the same total at every parallelism setting, so
	// whether a budget suffices is deterministic.
	Budget = mr.Budget
	// MemStats is the memory accounting of one run (see Result.Mem).
	MemStats = mr.MemStats
	// RunOptions observes and bounds one RunPlanCtx call: Progress (the
	// run's task record, to poll or fold) and Budget (memory cap), each
	// one fresh value per run. The zero value runs unlimited, into a
	// record of the engine's own, and accounted, so Result.JobTimings and
	// Result.Mem are always populated.
	RunOptions = mr.RunOptions
	// CostConfig holds the MapReduce cost-model constants (Table 1/5).
	CostConfig = cost.Config
	// Strategy selects an evaluation strategy.
	Strategy = core.Strategy
)

// Evaluation strategies (§5). SEQ, PAR, GREEDY, OPT and OneRound apply
// to flat (dependency-free) query sets; SeqUnit, ParUnit and GreedySGF
// apply to arbitrary SGF programs; HPAR, HPARS and PPAR are the Hive
// and Pig baselines.
const (
	SEQ       = core.StrategySEQ
	PAR       = core.StrategyPAR
	Greedy    = core.StrategyGreedy
	Opt       = core.StrategyOpt
	OneRound  = core.StrategyOneRound
	SeqUnit   = core.StrategySeqUnit
	ParUnit   = core.StrategyParUnit
	GreedySGF = core.StrategyGreedySGF
	HPAR      = baselines.StrategyHPAR
	HPARS     = baselines.StrategyHPARS
	PPAR      = baselines.StrategyPPAR
)

// Strategies returns every strategy Plan and Run accept, in the order
// the documentation lists them.
func Strategies() []Strategy { return exec.Strategies() }

// ErrBudgetExceeded is the sentinel a run's error matches (errors.Is)
// when the run charged past its memory budget. The concrete error also
// carries the limit and the charged/requested totals.
var ErrBudgetExceeded = mr.ErrBudgetExceeded

// ErrSpill is the sentinel a run's error matches (errors.Is) when
// shuffle spill (WithSpill) failed on the host: the spill directory is
// missing or not writable, the disk is full, a segment read back
// corrupt. The query is not at fault.
var ErrSpill = mr.ErrSpill

// NewBudget returns a budget aborting runs that charge more than limit
// bytes (0 = unlimited, accounting only). A Budget governs one run:
// charges accumulate and are never released, so pass a fresh Budget to
// each RunPlanCtx call.
func NewBudget(limit int64) *Budget { return mr.NewBudget(limit) }

// Int returns the Value for a non-negative integer.
func Int(n int64) Value { return relation.Int(n) }

// Str returns the Value for a string (interned).
func Str(s string) Value { return relation.String(s) }

// NewDatabase returns an empty database.
func NewDatabase() *Database { return relation.NewDatabase() }

// NewRelation returns an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation { return relation.New(name, arity) }

// FromTuples builds a relation from tuples (set semantics). The values
// are copied; the relation does not alias the tuples it was built from.
func FromTuples(name string, arity int, tuples []Tuple) *Relation {
	return relation.FromTuples(name, arity, tuples)
}

// DefaultCostConfig returns the paper's measured constants (Table 5).
func DefaultCostConfig() CostConfig { return cost.Default() }

// System evaluates queries under one configuration.
//
// A System is immutable after New and safe for concurrent use: any number
// of goroutines may call Plan, Run, RunPlan and Auto on one System
// simultaneously. Runs never mutate the database they are given (job
// outputs land in a fresh Result.Outputs database), and concurrent runs
// of the same query against the same database produce bit-for-bit
// identical Results (see WithHostWorkers for the underlying
// determinism contract). Callers may load new relations into a Database
// concurrently with runs — Database is internally locked — but a run
// that overlaps a load may observe either version of the relation;
// services that need a stable snapshot should key work off
// Database.Generation, as internal/server does.
type System struct {
	cfg        mr.Config
	clusterCfg cluster.Config
	runner     *exec.Runner
}

// Option configures a System.
type Option func(*System)

// WithCostConfig replaces the cost-model constants.
func WithCostConfig(c CostConfig) Option {
	return func(s *System) { s.cfg.Cost = c }
}

// WithCluster sets the simulated cluster size (nodes × container slots
// per node). The paper's testbed is 10×10.
func WithCluster(nodes, slotsPerNode int) Option {
	return func(s *System) { s.clusterCfg = cluster.Config{Nodes: nodes, SlotsPerNode: slotsPerNode} }
}

// WithScale scales the size-dependent cost settings (buffers, splits,
// reducer allocation) for runs at a fraction of the paper's data sizes.
func WithScale(f float64) Option {
	return func(s *System) { s.cfg.Cost = s.cfg.Cost.Scaled(f) }
}

// WithHostWorkers sizes the in-process engine's unified worker pool:
// every task of a plan — map tasks, shuffle partitions, reduce
// partitions and output merge shards, across all of the plan's jobs —
// runs on these `workers` goroutines, scheduled work-stealing at
// partition granularity (a dependent job's map tasks over a relation
// start the moment that relation is merged). Zero means GOMAXPROCS;
// 1 forces strictly sequential execution.
//
// Determinism contract: every Result field — output relations including
// their tuple iteration order, per-job stats, and simulated metrics —
// is bit-for-bit identical at every pool width; only host wall-clock
// time and memory change. The engine guarantees this by partitioning
// shuffle output in map-task order, reducing keys in sorted order with
// messages in arrival order, merging job outputs in
// sorted-name/reducer-index order, and publishing each merged relation
// before releasing the map tasks that read it (see
// docs/ARCHITECTURE.md, "Determinism contract").
func WithHostWorkers(workers int) Option {
	return func(s *System) { s.cfg.Workers = workers }
}

// WithSpill enables shuffle spill-to-disk: a shuffle partition whose
// modelled bytes reach threshold is written to a temp file under dir
// ("" = os.TempDir) and streamed back by the reduce stage, bounding the
// resident intermediate state of large shuffles. Outputs, stats and
// metrics are bit-for-bit identical to the in-memory path. A threshold
// ≤ 0 leaves spill off. Temp files never outlive the run — completed,
// canceled, over-budget and panicked runs all remove them.
func WithSpill(threshold int64, dir string) Option {
	return func(s *System) { s.cfg.SpillThreshold, s.cfg.SpillDir = threshold, dir }
}

// WithSkewSplit enables runtime skew splitting: after a job's shuffle,
// a reduce partition whose modelled bytes exceed ratio × the mean
// partition load is split at heavy-key boundaries (detected by a
// shuffle-time sketch) into sub-tasks the pool schedules
// independently, so one hot key no longer serializes the reduce wave.
// Outputs, stats and metrics are bit-for-bit identical to the unsplit
// run; only JobStats.SplitReduceTasks / MaxReduceTaskMB report the
// splitting, deterministically. A ratio ≤ 0 leaves splitting off; 1.5
// is a reasonable starting ratio.
func WithSkewSplit(ratio float64) Option {
	return func(s *System) { s.cfg.SkewSplit = ratio }
}

// New returns a System with the paper's default configuration. Options
// are applied once here — the one place the engine's configuration is
// resolved; the returned System is immutable.
func New(opts ...Option) *System {
	s := &System{cfg: mr.Config{Cost: cost.Default()}, clusterCfg: cluster.DefaultConfig()}
	for _, o := range opts {
		o(s)
	}
	s.runner = exec.NewRunner(s.cfg, s.clusterCfg)
	return s
}

// Result is the outcome of running a query.
type Result struct {
	// Relation is the query program's final output relation.
	Relation *Relation
	// Outputs contains every relation the executed program produced,
	// including intermediate MSJ outputs. Iteration order
	// (Database.Relations) is deterministic and schedule-independent:
	// jobs in plan-declared order, and within one job its output
	// relations in sorted-name order. Tuples within each relation are
	// likewise in a deterministic order (reduce tasks merge in reducer
	// index order, each reducer emits keys in ascending key order).
	Outputs *Database
	// Metrics are the measured/simulated performance metrics.
	Metrics Metrics
	// JobStats holds the per-job measurements behind Metrics, in
	// plan-declared job order (schedule-independent).
	JobStats []JobStats
	// JobTimings holds the measured per-job task wall-clock aligned with
	// JobStats. Host measurements: they vary run to run and are excluded
	// from the determinism contract.
	JobTimings []JobTiming
	// Mem is the run's memory accounting: bytes charged at the engine's
	// accounted allocation sites and spill activity. Charged/Spilled
	// totals are modelled, schedule-independent quantities like
	// JobStats.
	Mem MemStats
	// Plan describes the executed MR program.
	Plan *Plan
}

// Plan wraps an executable MapReduce plan. Plans are stateless: a Plan
// may be executed any number of times and concurrently (see RunPlan).
type Plan struct {
	inner *core.Plan
	// output is the source program's final output relation (set when the
	// plan is built through System.Plan; unit-based plans may list
	// inner.Outputs in level order rather than declaration order).
	output string
}

// Strategy returns the plan's strategy.
func (p *Plan) Strategy() Strategy { return p.inner.Strategy }

// Jobs returns the number of MapReduce jobs.
func (p *Plan) Jobs() int { return len(p.inner.Jobs) }

// Rounds returns the length of the longest job dependency chain.
func (p *Plan) Rounds() int { return p.inner.Rounds() }

// String renders a one-line summary.
func (p *Plan) String() string {
	return fmt.Sprintf("%s: %d jobs, %d rounds", p.inner.Strategy, p.Jobs(), p.Rounds())
}

// Plan builds the MapReduce plan for q under the strategy without
// running it. Cost-based strategies sample db to estimate job costs.
func (s *System) Plan(q *Query, db *Database, strategy Strategy) (*Plan, error) {
	inner, err := exec.BuildPlan(strategy, fmt.Sprintf("%s-%s", q.Name(), strategy), s.cfg.Cost, q.prog, db)
	if err != nil {
		return nil, err
	}
	return &Plan{inner: inner, output: q.Name()}, nil
}

// Run plans and executes q against db under the strategy. It is
// equivalent to Plan followed by RunPlan.
func (s *System) Run(q *Query, db *Database, strategy Strategy) (*Result, error) {
	plan, err := s.Plan(q, db, strategy)
	if err != nil {
		return nil, err
	}
	return s.RunPlan(plan, db)
}

// RunPlan executes a previously built plan against db. This is the
// plan-cache hook: services that serve the same query text repeatedly
// can Plan once and RunPlan per request, skipping parsing, validation
// and (for cost-based strategies) database sampling.
//
// Plans are stateless and may be run any number of times, concurrently,
// and against databases other than the one they were planned on, as long
// as the base relations the plan reads still exist with the same names
// and arities. Results are always exact; only the cost-based grouping
// baked into the plan can become stale when the data it was sampled on
// changes, so cache plans keyed by Database.Generation (see
// internal/server) when plan optimality matters.
func (s *System) RunPlan(plan *Plan, db *Database) (*Result, error) {
	// RunPlan is the library's documented no-cancellation entry point; RunPlanCtx is the context-aware form.
	return s.RunPlanCtx(context.Background(), plan, db, RunOptions{})
}

// RunPlanCtx is RunPlan honoring ctx and opts. The engine stops at the
// next task boundary after ctx is canceled or its deadline passes, and
// the returned error wraps ctx.Err() — errors.Is(err, context.Canceled)
// or errors.Is(err, context.DeadlineExceeded) holds. opts.Progress,
// when non-nil, is the run's task record: poll its Snapshot from any
// goroutine while the run executes (the progress internal/server's
// queries endpoint reads), or read its CriticalPath once the run
// returns; Result.JobTimings is a fold over the same record.
// opts.Budget, when non-nil, caps what the run may charge: a run that
// charges past its limit aborts like a cancellation with an error
// matching ErrBudgetExceeded via errors.Is — the admission-control hook
// internal/server builds its degradation ladder on. Either way the
// Result is nil, the input database untouched, and no goroutines or
// temp files are left.
func (s *System) RunPlanCtx(ctx context.Context, plan *Plan, db *Database, opts RunOptions) (*Result, error) {
	output := plan.output
	if output == "" && len(plan.inner.Outputs) > 0 {
		output = plan.inner.Outputs[len(plan.inner.Outputs)-1]
	}
	res, err := s.runner.Run(ctx, plan.inner, db, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Relation:   res.Outputs.Relation(output),
		Outputs:    res.Outputs,
		Metrics:    res.Metrics,
		JobStats:   res.JobStats,
		JobTimings: res.Timings,
		Mem:        res.Mem,
		Plan:       &Plan{inner: plan.inner, output: output},
	}, nil
}

// PredictBytes estimates how many bytes executing plan against db will
// charge against its budget: deduplicated base-input bytes plus the
// sampled intermediate bytes, packing included, of every job whose
// inputs are all in db (a job reading a relation the plan produces
// cannot be sampled before the run). A planning-time figure for
// admission control — same order as the real charge, not a bound.
func (s *System) PredictBytes(plan *Plan, db *Database) int64 {
	return s.runner.PredictPlanBytes(plan.inner, db)
}

// Auto picks a strategy for q by structure, cheapest applicable shape
// first:
//
//  1. if any subquery depends on another subquery's output (a nested
//     program), GreedySGF — the only cost-based strategy that handles
//     dependencies;
//  2. else if every query admits the fused map/reduce form (all its
//     conditional atoms share one join key, or its condition is a pure
//     disjunction of possibly negated atoms — see
//     core.OneRoundApplicable), OneRound — one MR round, no
//     intermediate X relations;
//  3. else Greedy — cost-based grouping of the flat query set's
//     semi-join equations into shared MSJ jobs.
//
// Auto inspects only the query's structure, never the database, so its
// choice is stable across databases; use Plan with an explicit strategy
// to compare alternatives under the cost model.
func (s *System) Auto(q *Query) Strategy {
	switch {
	case !sgf.Flat(q.prog):
		return GreedySGF
	case core.AllOneRound(q.prog.Queries):
		return OneRound
	default:
		return Greedy
	}
}

// Eval evaluates q directly in memory (the reference evaluator), without
// MapReduce. Useful for testing and for small inputs.
func Eval(q *Query, db *Database) (*Relation, error) {
	return refeval.EvalOutput(q.prog, db)
}

// EvalAll evaluates q directly and returns every output relation.
func EvalAll(q *Query, db *Database) (*Database, error) {
	return refeval.EvalProgram(q.prog, db)
}
