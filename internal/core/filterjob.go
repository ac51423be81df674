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

// NewOuterJoinJob builds one left-outer-join stage as Hive runs it
// (HPAR): every fact of in conforming to pattern is shuffled whole,
// keyed on guard's variables shared with atoms[0], and written to out
// followed by one 0/1 column per stage atom — 1 when a fact of that
// atom meets it at the key. pattern is the query's guard at the first
// stage; a later stage reads the previous one's output, whose leading
// columns are a guard tuple, so guard's projections key it too.
func NewOuterJoinJob(name, in, out string, pattern, guard sgf.Atom, atoms []sgf.Atom) (*mr.Job, error) {
	t := newReconcile("outer-join job", name)
	carry := wholeTuple(pattern.Arity())
	if err := t.output(out, carry.arity()+len(atoms)); err != nil {
		return nil, err
	}
	err := t.request(request{
		input: in, guard: pattern,
		key:   on(guard, sgf.SharedVars(guard, atoms[0])),
		carry: carry, size: tupleTagByte + int64(carry.arity())*relation.BytesPerField,
		flags: len(atoms),
		out:   out,
	})
	if err != nil {
		return nil, err
	}
	for i, a := range atoms {
		t.assert(a.Rel, assertRole{matcher: sgf.NewMatcher(a), key: on(a, sgf.SharedVars(guard, a)), class: int32(i)})
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
	// Branches produced by filter chains always conform; the guard
	// relation itself (a TRUE disjunct) may not.
	return NewDistinctJob(name, out, branchRels, sgf.NewProjector(guard, selectVars), sgf.NewMatcher(guard).Matches), nil
}

// distinct is the one project-and-deduplicate job: every fact accept
// admits is shuffled under its projection, and each key group writes
// that projection once.
type distinct struct {
	out     string
	project sgf.Projector
	accept  func(relation.Tuple) bool
}

// NewDistinctJob builds the distinct job writing to out the projections
// of the facts of inputs that accept admits: SEQ's union and HPAR's
// filter.
func NewDistinctJob(name, out string, inputs []string, project sgf.Projector, accept func(relation.Tuple) bool) *mr.Job {
	d := &distinct{out: out, project: project, accept: accept}
	return &mr.Job{
		Name:    name,
		Inputs:  append([]string(nil), inputs...),
		Outputs: map[string]int{out: project.Arity()},
		Mapper:  d,
		Reducer: d,
		Packing: true,
	}
}

// Map sends f's projection under itself when accept admits f, whatever
// its input.
func (d *distinct) Map(_ int, id int, f relation.Tuple, emit *mr.Emitter) {
	if !d.accept(f) {
		return
	}
	var kb [48]byte
	var ob [8]relation.Value
	p := d.project.AppendTo(ob[:0], f)
	TupleVal{T: p}.Emit(emit, p.AppendKey(kb[:0]))
}

// Reduce writes the group's projection once.
func (d *distinct) Reduce(key []byte, msgs *mr.Group, out *mr.Output) {
	if msgs.Len() > 0 {
		var ob [8]relation.Value
		_, p := msgs.At(0)
		out.Add(d.out, DecodeTupleVal(ob[:0], p).T)
	}
}
