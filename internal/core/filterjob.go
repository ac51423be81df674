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
	if step.Out == step.GuardRel || step.Out == step.Cond.Rel {
		return nil, fmt.Errorf("core: filter job %s: output %s occurs in a right-hand side", name, step.Out)
	}
	joinVars := sgf.SharedVars(step.Guard, step.Cond)
	guardMatcher := sgf.NewMatcher(step.Guard)
	guardProj := sgf.NewProjector(step.Guard, joinVars)
	condMatcher := sgf.NewMatcher(step.Cond)
	condProj := sgf.NewProjector(step.Cond, joinVars)

	outArity := step.Guard.Arity()
	var project sgf.Projector
	projectSet := step.Project != nil
	if projectSet {
		project = sgf.NewProjector(step.Guard, step.Project)
		outArity = len(step.Project)
	}

	inputs := []string{step.GuardRel}
	if step.Cond.Rel != step.GuardRel {
		inputs = append(inputs, step.Cond.Rel)
	}

	mapper := mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
		var kb [32]byte // append-style shuffle keys, see NewMSJJob
		if input == step.GuardRel && guardMatcher.Matches(t) {
			var ob [8]relation.Value // the projected output; Emit copies it
			out := t
			if projectSet {
				out = project.AppendTo(ob[:0], t)
			}
			ReqTuple{Q: 0, Disjunct: -1, Out: out}.Emit(emit, guardProj.AppendKey(kb[:0], t))
		}
		if input == step.Cond.Rel && condMatcher.Matches(t) {
			Assert{Class: 0}.Emit(emit, condProj.AppendKey(kb[:0], t))
		}
	})

	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		asserted := false
		for i := 0; i < msgs.Len() && !asserted; i++ {
			tag, _ := msgs.At(i)
			asserted = tag == TagAssert
		}
		if asserted == step.Negated {
			return
		}
		var ob [8]relation.Value // each output fact; Output.Add copies it
		for i := 0; i < msgs.Len(); i++ {
			if tag, p := msgs.At(i); tag == TagReqTuple {
				out.Add(step.Out, DecodeReqTuple(ob[:0], p).Out)
			}
		}
	})

	return &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: map[string]int{step.Out: outArity},
		Mapper:  mapper,
		Reducer: reducer,
		Packing: true,
	}, nil
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
