package baselines

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// HParPlan builds Hive's outer-join strategy (HPAR) for the queries:
// the query is rewritten as a chain of left-outer-join stages — one per
// conditional atom, with consecutive atoms on the same join key merged
// into a single stage, as Hive's multi-way join does (this is why A3
// collapses to two jobs in §5.2) — followed by a filter/project/distinct
// job. Stages run strictly sequentially and shuffle the full (guard +
// null-flag) tuples, which is exactly what makes HPAR lose in the paper.
func HParPlan(name string, queries []*sgf.BSGF) (*core.Plan, error) {
	return mergeIndependent(name, StrategyHPAR, queries, hparSingle)
}

func hparSingle(name string, q *sgf.BSGF) (*core.Plan, error) {
	k := HiveKnobs()
	plan := &core.Plan{Name: name, Strategy: StrategyHPAR}

	// Stages: runs of consecutive atoms with the same join variables.
	var stages [][]sgf.Atom
	for _, a := range q.CondAtoms() {
		if n := len(stages); n > 0 && slices.Equal(sgf.SharedVars(q.Guard, stages[n-1][0]), sgf.SharedVars(q.Guard, a)) {
			stages[n-1] = append(stages[n-1], a)
		} else {
			stages = append(stages, []sgf.Atom{a})
		}
	}

	// The first stage reads the guard relation, each later one the
	// output of the stage before: guard tuples followed by their flags.
	prevRel, pattern := q.Guard.Rel, q.Guard
	for si, st := range stages {
		out := fmt.Sprintf("HJ_%s_%d", q.Name, si)
		job, err := core.NewOuterJoinJob(fmt.Sprintf("%s/join%d", name, si), prevRel, out, pattern, q.Guard, st)
		if err != nil {
			return nil, err
		}
		k.apply(job)
		plan.AddJob(job)
		prevRel, pattern = out, core.AnyTuple(pattern.Arity()+len(st))
	}

	// Stages take the atoms in order, so the flag of the query's atom i
	// sits in column guard arity + i.
	filter, err := hparFilterJob(name+"/filter", q, prevRel, pattern)
	if err != nil {
		return nil, err
	}
	k.apply(filter)
	plan.AddJob(filter)
	return plan, nil
}

// hparFilterJob evaluates the Boolean condition on the flag columns of
// the facts of inRel conforming to pattern, projects onto the select
// variables, and deduplicates.
func hparFilterJob(name string, q *sgf.BSGF, inRel string, pattern sgf.Atom) (*mr.Job, error) {
	// The condition is compiled over the flags as bits: atom i of the
	// query is bit i, set when its column holds 1.
	atoms := q.CondAtoms()
	atomIdx := make(map[string]int, len(atoms))
	for ai, a := range atoms {
		atomIdx[a.Key()] = ai
	}
	cond, err := sgf.CompileCondition(q.Where, func(k string) (int, bool) {
		ai, ok := atomIdx[k]
		return ai, ok
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: filter job %s: %w", name, err)
	}
	words, flag0 := (len(atoms)+63)/64, q.Guard.Arity()
	// When the query has no conditional atoms, pattern is the guard: the
	// filter reads the raw guard relation.
	matcher := sgf.NewMatcher(pattern)
	accept := func(t relation.Tuple) bool {
		if !matcher.Matches(t) {
			return false
		}
		var stack [2]uint64
		bits := stack[:]
		if words > len(stack) {
			bits = make([]uint64, words)
		}
		for ai := range atoms {
			if t[flag0+ai] == 1 {
				bits[ai>>6] |= 1 << (uint(ai) & 63)
			}
		}
		return cond.Eval(bits)
	}
	return core.NewDistinctJob(name, q.Name, []string{inRel}, sgf.NewProjector(q.Guard, q.Select), accept), nil
}
