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
	outs := make(map[string]int, len(specs))
	var inputs []string
	seen := make(map[string]bool)
	addInput := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			inputs = append(inputs, rel)
		}
	}

	type guardRole struct {
		q       int32
		matcher sgf.Matcher
	}
	guardRoles := make(map[string][]guardRole)
	type xRole struct {
		q    int32
		atom int32
	}
	xRoles := make(map[string]xRole)

	// Per-query compiled data for the reducer.
	type querySpec struct {
		cond sgf.Condition
		// condBits is the compiled allocation-free evaluator over the
		// atom-index truth mask (bit i = atom i of atomKeys matched);
		// nil for queries with more than 64 distinct atoms, which fall
		// back to the truth-map path.
		condBits func(mask uint64) bool
		atomKeys []string // canonical keys of the distinct atoms, by index
		project  sgf.Projector
		outName  string
	}
	qspecs := make([]querySpec, len(specs))

	for qi, spec := range specs {
		q := spec.Query
		if _, dup := outs[q.Name]; dup {
			return nil, fmt.Errorf("core: EVAL job %s: output %s defined twice", name, q.Name)
		}
		outs[q.Name] = q.OutArity()
		atoms := q.CondAtoms()
		if len(atoms) != len(spec.XNames) {
			return nil, fmt.Errorf("core: EVAL job %s: query %s has %d atoms but %d X relations",
				name, q.Name, len(atoms), len(spec.XNames))
		}
		addInput(q.Guard.Rel)
		guardRoles[q.Guard.Rel] = append(guardRoles[q.Guard.Rel], guardRole{
			q:       int32(qi),
			matcher: sgf.NewMatcher(q.Guard),
		})
		keys := make([]string, len(atoms))
		for ai, a := range atoms {
			keys[ai] = a.Key()
			xn := spec.XNames[ai]
			if _, dup := xRoles[xn]; dup {
				return nil, fmt.Errorf("core: EVAL job %s: X relation %s used twice", name, xn)
			}
			xRoles[xn] = xRole{q: int32(qi), atom: int32(ai)}
			addInput(xn)
		}
		spec := querySpec{
			cond:     q.Where,
			atomKeys: keys,
			project:  sgf.NewProjector(q.Guard, q.Select),
			outName:  q.Name,
		}
		if len(keys) <= 64 {
			bitIdx := make(map[string]int, len(keys))
			for i, k := range keys {
				bitIdx[k] = i
			}
			spec.condBits = sgf.CompileCondition(q.Where, func(k string) (int, bool) {
				i, ok := bitIdx[k]
				return i, ok
			})
		}
		qspecs[qi] = spec
	}

	mapper := mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
		var kb [24]byte // append-style shuffle keys, see NewMSJJob
		for _, g := range guardRoles[input] {
			if g.matcher.Matches(t) {
				TupleVal{T: t}.Emit(emit, appendEvalKey(kb[:0], g.q, int64(id)))
			}
		}
		if xr, ok := xRoles[input]; ok {
			XIndex{Atom: xr.atom}.Emit(emit, appendEvalKey(kb[:0], xr.q, int64(t[0])))
		}
	})

	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		q, _ := parseEvalKey(key)
		spec := &qspecs[q]
		// The guard and its projection live in stack scratch: the guard
		// is only projected from, and Output.Add copies the projection.
		var gb, ob [8]relation.Value
		var guard relation.Tuple
		if spec.condBits != nil {
			// Hot path: collect verdicts as an atom-index bitmask and
			// evaluate the compiled condition — no per-key allocations.
			var mask uint64
			for i := 0; i < msgs.Len(); i++ {
				switch tag, p := msgs.At(i); tag {
				case TagTupleVal:
					guard = DecodeTupleVal(gb[:0], p).T
				case TagXIndex:
					mask |= uint64(1) << uint(DecodeXIndex(p).Atom)
				}
			}
			if guard == nil {
				// An X record without its guard re-read cannot happen in
				// a well-formed plan; ignore defensively.
				return
			}
			if spec.condBits(mask) {
				out.Add(spec.outName, spec.project.AppendTo(ob[:0], guard))
			}
			return
		}
		truth := make(map[string]bool, len(spec.atomKeys))
		for i := 0; i < msgs.Len(); i++ {
			switch tag, p := msgs.At(i); tag {
			case TagTupleVal:
				guard = DecodeTupleVal(gb[:0], p).T
			case TagXIndex:
				truth[spec.atomKeys[DecodeXIndex(p).Atom]] = true
			}
		}
		if guard == nil {
			return
		}
		if sgf.EvalCondition(spec.cond, truth) {
			out.Add(spec.outName, spec.project.AppendTo(ob[:0], guard))
		}
	})

	return &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: outs,
		Mapper:  mapper,
		Reducer: reducer,
		Packing: true,
	}, nil
}
