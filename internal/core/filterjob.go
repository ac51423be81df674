package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// FilterStep describes one sequential semi-join (or anti-join) step, the
// building block of the SEQ strategy (§5.2): filter the facts of a guard
// relation by the existence (or absence) of a matching conditional fact.
// Unlike MSJ, the output contains the surviving guard tuples themselves
// (optionally projected), so steps chain: the output feeds the next
// step's guard.
type FilterStep struct {
	Out      string   // output relation name
	GuardRel string   // relation to filter (a base relation or a previous step's output)
	Guard    sgf.Atom // conformance pattern for guard facts (relation symbol ignored)
	Cond     sgf.Atom // conditional atom κ
	Negated  bool     // anti-join: keep guard facts with no matching conditional fact
	// Project lists the variables to project the surviving tuples onto;
	// nil passes the full tuple through (chaining mode).
	Project []string
}

// NewFilterJob builds the one-round repartition (anti-)semi-join job of
// §4.1 for a single step.
func NewFilterJob(name string, step FilterStep) (*mr.Job, error) {
	// A request is modelled like 1-ROUND's: the tuple behind a 4-byte
	// query / disjunct tag.
	return semiJoinJob("filter job", name, step, 4)
}

// NewSemiJoinFullJob builds step's job as Hive and Pig run it, and as
// MSJ runs with optimization (2) off: the surviving guard tuples
// themselves are shuffled and written, modelled as bare tuples.
func NewSemiJoinFullJob(name string, step FilterStep) (*mr.Job, error) {
	return semiJoinJob("semi-join job", name, step, 0)
}

func semiJoinJob(kind, name string, step FilterStep, tagBytes int64) (*mr.Job, error) {
	if step.Out == step.GuardRel || step.Out == step.Cond.Rel {
		return nil, fmt.Errorf("core: %s %s: output %s occurs in a right-hand side", kind, name, step.Out)
	}
	t := newReconcile(kind, name)
	carry := wholeTuple(step.Guard.Arity())
	if step.Project != nil {
		carry = on(step.Guard, step.Project)
	}
	if err := t.output(step.Out, carry.arity()); err != nil {
		return nil, err
	}
	t.input(step.GuardRel) // the guard leads the read set
	joinVars := sgf.SharedVars(step.Guard, step.Cond)
	var cond sgf.Condition = sgf.AtomCond{Atom: step.Cond}
	if step.Negated {
		cond = sgf.Not{C: cond}
	}
	err := t.request(request{
		input: step.GuardRel, guard: step.Guard,
		key:   on(step.Guard, joinVars),
		carry: carry, size: tupleTagByte + tagBytes + int64(carry.arity())*relation.BytesPerField,
		cond: cond,
		bits: map[string]int32{step.Cond.Key(): t.class(step.Cond, joinVars)},
		out:  step.Out,
	})
	if err != nil {
		return nil, err
	}
	return t.job(), nil
}

// NewUnionProjectJob builds the final job of a disjunctive SEQ plan: the
// union of several filtered branches, each projected onto the query's
// select variables and deduplicated.
func NewUnionProjectJob(name, out string, guard sgf.Atom, selectVars []string, branchRels []string) (*mr.Job, error) {
	if len(branchRels) == 0 {
		return nil, fmt.Errorf("core: union job %s has no branches", name)
	}
	project := sgf.NewProjector(guard, selectVars)
	matcher := sgf.NewMatcher(guard)
	inputs := append([]string(nil), branchRels...)
	mapper := mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
		// Branches produced by filter chains always conform; the guard
		// relation itself (a TRUE disjunct) may not.
		if !matcher.Matches(t) {
			return
		}
		var kb [32]byte
		var ob [8]relation.Value
		p := project.AppendTo(ob[:0], t)
		TupleVal{T: p}.Emit(emit, p.AppendKey(kb[:0]))
	})
	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, o *mr.Output) {
		if msgs.Len() > 0 {
			var ob [8]relation.Value
			_, p := msgs.At(0)
			o.Add(out, DecodeTupleVal(ob[:0], p).T)
		}
	})
	return &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: map[string]int{out: len(selectVars)},
		Mapper:  mapper,
		Reducer: reducer,
		Packing: true,
	}, nil
}
