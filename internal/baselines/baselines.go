// Package baselines emulates the comparison systems of §5.2 — Pig 0.15
// and Hive 1.2.1 — as plan shapes on the same MapReduce engine. The
// emulations reproduce the plan-level causes the paper identifies for
// their behaviour:
//
//   - HPAR (Hive outer joins): one outer-join stage per conditional
//     atom, stages forcibly sequential (Hive executes such join chains
//     sequentially even with parallel execution enabled), except that
//     consecutive joins on the same key collapse into one stage (which
//     is why A3 drops to two jobs in the paper); full tuples plus
//     null-flags are shuffled at every stage.
//   - HPARS (Hive semi-joins): one semi-join job per atom, runnable in
//     parallel but without any grouping or tuple-id reduction: the X
//     relations hold full guard tuples.
//   - PPAR (Pig COGROUP): like HPARS, plus Pig's input-based reducer
//     allocation (one reducer per GB of map input) and no intermediate
//     reduction.
//
// None of the baselines use message packing, and their serialization
// overhead is modelled with an intermediate-data inflation factor.
//
// The package holds plan shapes and knobs only: every job is built by a
// constructor of internal/core — HPAR's stages are reconcile tables
// (core.NewOuterJoinJob), its filter the one distinct job
// (core.NewDistinctJob) — and Knobs.apply shapes it; no mapper or
// reducer lives here.
package baselines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/sgf"
)

// Strategy labels for the baselines.
const (
	StrategyHPAR  core.Strategy = "HPAR"
	StrategyHPARS core.Strategy = "HPARS"
	StrategyPPAR  core.Strategy = "PPAR"
)

// Knobs models the systemic overheads of the emulated engines.
type Knobs struct {
	// Inflate multiplies modelled intermediate sizes (serialization
	// overhead of Hive/Pig record formats vs Gumbo's compact encoding).
	Inflate float64
	// TimeFactor slows task execution relative to Gumbo's jobs (JVM
	// per-record costs, deserialization; the paper attributes HPARS's
	// slowness to "higher average map and reduce input sizes").
	TimeFactor float64
	// ExtraOverheadSec is the per-job startup latency beyond plain MR
	// (Hive query compilation/launch, Pig script compilation), in
	// full-scale seconds.
	ExtraOverheadSec float64
	// ReducerInputMB, when > 0, switches reducer allocation to Pig's
	// input-based policy with this much (full-scale) map input per
	// reducer.
	ReducerInputMB float64
}

// HiveKnobs reflects Hive's per-job compilation latency and its higher
// per-task processing times observed in §5.2.
func HiveKnobs() Knobs { return Knobs{Inflate: 1.05, TimeFactor: 1.35, ExtraOverheadSec: 20} }

// PigKnobs reflects Pig's bag serialization plus its 1 GB-of-input-per-
// reducer allocation.
func PigKnobs() Knobs {
	return Knobs{Inflate: 1.1, TimeFactor: 1.25, ExtraOverheadSec: 15, ReducerInputMB: 1024}
}

// Handicap returns the execution-speed factor and per-job startup
// latency (full-scale seconds) of the engine that strategy emulates:
// Hive's for HPAR and HPARS, Pig's for PPAR, and none (1, 0) for every
// other strategy. They shape only modelled times, never the run, so the
// engine's jobs do not carry them.
func Handicap(strategy core.Strategy) (timeFactor, extraOverheadSec float64) {
	k := Knobs{TimeFactor: 1}
	switch strategy {
	case StrategyHPAR, StrategyHPARS:
		k = HiveKnobs()
	case StrategyPPAR:
		k = PigKnobs()
	}
	return k.TimeFactor, k.ExtraOverheadSec
}

// apply sets the knobs that shape a job's run; Handicap supplies the
// rest to the time model.
func (k Knobs) apply(j *mr.Job) {
	j.Packing = false
	j.InflateIntermediate = k.Inflate
	j.ReducerInputMB = k.ReducerInputMB
}

// hxName is the intermediate relation name for query q's atom ai.
func hxName(prefix, qname string, ai int) string {
	return fmt.Sprintf("%s_%s_%d", prefix, qname, ai)
}

// parallelSemiJoinPlan builds the HPARS / PPAR plan for one query: one
// full-tuple semi-join job per atom (parallel, no tuple-id
// optimization: the X relations hold whole guard tuples) plus the
// combine job that joins the guard with them on the whole tuple,
// evaluates the Boolean condition, projects and deduplicates.
func parallelSemiJoinPlan(name string, strategy core.Strategy, q *sgf.BSGF, prefix string, k Knobs) (*core.Plan, error) {
	plan := &core.Plan{Name: name, Strategy: strategy}
	var xNames []string
	for ai, atom := range q.CondAtoms() {
		out := hxName(prefix, q.Name, ai)
		xNames = append(xNames, out)
		job, err := core.NewSemiJoinFullJob(fmt.Sprintf("%s/sj%d", name, ai),
			core.FilterStep{Out: out, GuardRel: q.Guard.Rel, Guard: q.Guard, Cond: atom})
		if err != nil {
			return nil, err
		}
		k.apply(job)
		plan.AddJob(job)
	}
	combine, err := core.NewCombineFullJob(name+"/combine", core.EvalSpec{Query: q, XNames: xNames})
	if err != nil {
		return nil, err
	}
	k.apply(combine)
	plan.AddJob(combine)
	return plan, nil
}

// HParSPlan builds Hive's semi-join strategy plan for the queries.
func HParSPlan(name string, queries []*sgf.BSGF) (*core.Plan, error) {
	return mergeIndependent(name, StrategyHPARS, queries, func(n string, q *sgf.BSGF) (*core.Plan, error) {
		return parallelSemiJoinPlan(n, StrategyHPARS, q, "HXS", HiveKnobs())
	})
}

// PParPlan builds Pig's COGROUP strategy plan for the queries.
func PParPlan(name string, queries []*sgf.BSGF) (*core.Plan, error) {
	return mergeIndependent(name, StrategyPPAR, queries, func(n string, q *sgf.BSGF) (*core.Plan, error) {
		return parallelSemiJoinPlan(n, StrategyPPAR, q, "PX", PigKnobs())
	})
}

// FullTuplePlan builds the PAR-shaped plan without the tuple-id
// optimization but with every other Gumbo optimization enabled (message
// packing, no engine handicaps): per-atom semi-join jobs output full
// guard tuples and the combine job joins on whole tuples. Used by the
// tuple-id ablation (E11b; §5.1 optimization (2)).
func FullTuplePlan(name string, queries []*sgf.BSGF) (*core.Plan, error) {
	plan, err := mergeIndependent(name, "FULL-TUPLE", queries, func(n string, q *sgf.BSGF) (*core.Plan, error) {
		return parallelSemiJoinPlan(n, "FULL-TUPLE", q, "FX", Knobs{Inflate: 1})
	})
	if err != nil {
		return nil, err
	}
	for _, j := range plan.Jobs {
		j.Packing = true
	}
	return plan, nil
}

// mergeIndependent concatenates per-query plans without cross barriers.
func mergeIndependent(name string, strategy core.Strategy, queries []*sgf.BSGF, build func(string, *sgf.BSGF) (*core.Plan, error)) (*core.Plan, error) {
	subs := make([]*core.Plan, len(queries))
	for qi, q := range queries {
		sub, err := build(fmt.Sprintf("%s/q%d", name, qi), q)
		if err != nil {
			return nil, err
		}
		subs[qi] = sub
	}
	return core.MergePlans(name, strategy, subs), nil
}
