package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// EvalSpec describes one Boolean combination Y ∧ φ inside an EVAL job
// (§4.3): re-evaluate the guard relation of one BSGF query against the
// per-tuple verdicts of its MSJ output relations, and write the
// projected output.
type EvalSpec struct {
	Query *sgf.BSGF
	// XNames[i] is the MSJ output relation holding ids of guard tuples
	// satisfying the query's i-th distinct conditional atom.
	XNames []string
}

// NewEvalJob builds the single MapReduce job EVAL(Y1, φ1, ..., Yn, φn):
// the guard relations are re-read (cheap, per optimization (2)) and keyed
// by (query, tuple id); the X relations contribute truth marks; the
// reducer evaluates each query's Boolean condition per guard tuple and
// writes the projection.
//
// Inputs is the job's complete read set: the guard relations (usually
// base relations) and the MSJ output X relations. Declaring them
// per-relation is what lets the pipelined scheduler re-read the guards
// while the MSJ jobs producing the X inputs are still running.
func NewEvalJob(name string, specs []EvalSpec) (*mr.Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: EVAL job %s has no specs", name)
	}
	t := newReconcile("EVAL job", name)
	t.keyed = true
	marks := make(map[string]bool)
	id := sgf.NewAtom("", sgf.V("id")) // an X fact: one guard tuple id
	for qi, spec := range specs {
		q := spec.Query
		bits, err := t.evalOutput(spec)
		if err != nil {
			return nil, err
		}
		// The guard re-read: the whole tuple in the paper's accounting,
		// its projection on the wire — the reducer writes nothing else.
		err = t.request(request{
			input: q.Guard.Rel, guard: q.Guard,
			key:   fields{id: true},
			carry: on(q.Guard, q.Select),
			size:  tupleTagByte + int64(q.Guard.Arity())*relation.BytesPerField,
			cond:  q.Where, bits: bits, out: q.Name,
		})
		if err != nil {
			return nil, err
		}
		for ai, xn := range spec.XNames {
			if marks[xn] {
				return nil, fmt.Errorf("core: EVAL job %s: X relation %s used twice", name, xn)
			}
			marks[xn] = true
			t.assert(xn, assertRole{matcher: sgf.NewMatcher(id), key: on(id, []string{"id"}), class: int32(ai), of: int32(qi)})
		}
	}
	return t.job(), nil
}

// evalOutput declares spec's output and returns its condition's bits:
// atom i of the query is class i, the mark of X relation XNames[i].
func (t *reconcile) evalOutput(spec EvalSpec) (map[string]int32, error) {
	q := spec.Query
	if err := t.output(q.Name, q.OutArity()); err != nil {
		return nil, err
	}
	atoms := q.CondAtoms()
	if len(atoms) != len(spec.XNames) {
		return nil, fmt.Errorf("core: %s %s: query %s has %d atoms but %d X relations",
			t.kind, t.name, q.Name, len(atoms), len(spec.XNames))
	}
	bits := make(map[string]int32, len(atoms))
	for ai, a := range atoms {
		bits[a.Key()] = int32(ai)
	}
	return bits, nil
}

// NewCombineFullJob builds EVAL with optimization (2) off — the final
// job of the Hive / Pig semi-join plans and of the tuple-id ablation:
// the X relations hold whole guard tuples rather than ids, so the guard
// is joined with them on the whole tuple, the Boolean condition
// evaluated, and the projection written. One query per job.
func NewCombineFullJob(name string, spec EvalSpec) (*mr.Job, error) {
	q := spec.Query
	t := newReconcile("combine job", name)
	bits, err := t.evalOutput(spec)
	if err != nil {
		return nil, err
	}
	whole := wholeTuple(q.Guard.Arity())
	err = t.request(request{
		input: q.Guard.Rel, guard: q.Guard,
		key:   whole,
		carry: on(q.Guard, q.Select), size: assertBytes, // a bare presence mark
		cond: q.Where, bits: bits, out: q.Name,
	})
	if err != nil {
		return nil, err
	}
	for ai, xn := range spec.XNames {
		t.assert(xn, assertRole{matcher: sgf.NewMatcher(q.Guard), key: whole, class: int32(ai)})
	}
	return t.job(), nil
}
