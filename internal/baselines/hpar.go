package baselines

import (
	"fmt"

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
	atoms := q.CondAtoms()
	k := HiveKnobs()
	plan := &core.Plan{Name: name, Strategy: StrategyHPAR, Outputs: []string{q.Name}}
	guardArity := q.Guard.Arity()

	// Stage grouping: consecutive atoms with the same join signature.
	type stage struct {
		atoms   []sgf.Atom
		atomIdx []int // index within the query's distinct atom list
	}
	var stages []stage
	sigOf := func(a sgf.Atom) string {
		vars := sgf.SharedVars(q.Guard, a)
		sig := ""
		for _, v := range vars {
			sig += v + "\x00"
		}
		return sig
	}
	for ai, a := range atoms {
		sig := sigOf(a)
		if len(stages) > 0 && sigOf(stages[len(stages)-1].atoms[0]) == sig {
			last := &stages[len(stages)-1]
			last.atoms = append(last.atoms, a)
			last.atomIdx = append(last.atomIdx, ai)
		} else {
			stages = append(stages, stage{atoms: []sgf.Atom{a}, atomIdx: []int{ai}})
		}
	}

	prevRel := q.Guard.Rel
	flagsSoFar := 0
	for si, st := range stages {
		out := fmt.Sprintf("HJ_%s_%d", q.Name, si)
		job := hparStageJob(fmt.Sprintf("%s/join%d", name, si), q, st.atoms, prevRel, out,
			si == 0, guardArity+flagsSoFar, k)
		plan.AddJob(job)
		prevRel = out
		flagsSoFar += len(st.atoms)
	}

	// Final filter + project + distinct job. Flag order follows stage
	// grouping; flagPos maps the query's atom index to its flag column.
	flagPos := make([]int, len(atoms))
	col := guardArity
	for _, st := range stages {
		for _, ai := range st.atomIdx {
			flagPos[ai] = col
			col++
		}
	}
	filter, err := hparFilterJob(name+"/filter", q, prevRel, guardArity+len(atoms), flagPos, k)
	if err != nil {
		return nil, err
	}
	plan.AddJob(filter)
	return plan, nil
}

// hparStageJob joins the current intermediate (guard tuple + flags) with
// the stage's conditional relations on their shared join key, appending
// one 0/1 flag per atom. Left-outer semantics: every intermediate tuple
// survives.
func hparStageJob(name string, q *sgf.BSGF, stageAtoms []sgf.Atom, inRel, outRel string, first bool, inArity int, k Knobs) *mr.Job {
	joinVars := sgf.SharedVars(q.Guard, stageAtoms[0])
	guardMatcher := sgf.NewMatcher(q.Guard)
	keyPositions := q.Guard.VarPositions(joinVars)
	inputs := []string{inRel}
	type condRole struct {
		class   int32
		matcher sgf.Matcher
		proj    sgf.Projector
	}
	condRoles := make(map[string][]condRole)
	for ci, a := range stageAtoms {
		if _, seen := condRoles[a.Rel]; !seen && a.Rel != inRel {
			inputs = append(inputs, a.Rel)
		}
		condRoles[a.Rel] = append(condRoles[a.Rel], condRole{
			class:   int32(ci),
			matcher: sgf.NewMatcher(a),
			proj:    sgf.NewProjector(a, sgf.SharedVars(q.Guard, a)),
		})
	}
	outArity := inArity + len(stageAtoms)
	job := &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: map[string]int{outRel: outArity},
		Mapper: mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
			var kb [48]byte // append-style shuffle keys, see core.NewMSJJob
			if input == inRel && len(t) == inArity {
				if first && !guardMatcher.Matches(t) {
					return
				}
				key := t.Project(keyPositions)
				core.TupleVal{T: t}.Emit(emit, key.AppendKey(kb[:0]))
			}
			for _, cr := range condRoles[input] {
				if cr.matcher.Matches(t) {
					core.Assert{Class: cr.class}.Emit(emit, cr.proj.AppendKey(kb[:0], t))
				}
			}
		}),
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, o *mr.Output) {
			// Flags and each output fact live in stack scratch:
			// Output.Add copies.
			var fb, ob [16]relation.Value
			flags := append(fb[:0], make([]relation.Value, len(stageAtoms))...)
			for i := 0; i < msgs.Len(); i++ {
				if tag, p := msgs.At(i); tag == core.TagAssert {
					c := core.DecodeAssert(p).Class
					if c < 0 || int(c) >= len(flags) {
						mr.Corrupt("Assert class")
					}
					flags[c] = 1
				}
			}
			for i := 0; i < msgs.Len(); i++ {
				if tag, p := msgs.At(i); tag == core.TagTupleVal {
					o.Add(outRel, append(core.DecodeTupleVal(ob[:0], p).T, flags...))
				}
			}
		}),
	}
	k.apply(job)
	return job
}

// hparFilterJob evaluates the Boolean condition on the flag columns,
// projects onto the select variables, and deduplicates.
func hparFilterJob(name string, q *sgf.BSGF, inRel string, inArity int, flagPos []int, k Knobs) (*mr.Job, error) {
	// The condition is compiled over the flags as bits: atom i of the
	// query is bit i, set when column flagPos[i] holds 1.
	atomIdx := make(map[string]int, len(flagPos))
	for ai, a := range q.CondAtoms() {
		atomIdx[a.Key()] = ai
	}
	cond, err := sgf.CompileCondition(q.Where, func(k string) (int, bool) {
		ai, ok := atomIdx[k]
		return ai, ok
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: filter job %s: %w", name, err)
	}
	words := (len(flagPos) + 63) / 64
	project := sgf.NewProjector(q.Guard, q.Select)
	// When the query has no conditional atoms, the filter reads the raw
	// guard relation and must still apply the guard pattern.
	guardMatcher := sgf.NewMatcher(q.Guard)
	rawGuard := inRel == q.Guard.Rel
	job := &mr.Job{
		Name:    name,
		Inputs:  []string{inRel},
		Outputs: map[string]int{q.Name: q.OutArity()},
		Mapper: mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
			if len(t) != inArity {
				return
			}
			if rawGuard && !guardMatcher.Matches(t) {
				return
			}
			var stack [2]uint64
			bits := stack[:]
			if words > len(stack) {
				bits = make([]uint64, words)
			}
			for ai, pos := range flagPos {
				if t[pos] == 1 {
					bits[ai>>6] |= 1 << (uint(ai) & 63)
				}
			}
			if !cond.Eval(bits) {
				return
			}
			var kb [48]byte
			var ob [8]relation.Value
			p := project.AppendTo(ob[:0], t)
			core.TupleVal{T: p}.Emit(emit, p.AppendKey(kb[:0]))
		}),
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, o *mr.Output) {
			if msgs.Len() > 0 {
				var ob [8]relation.Value
				_, p := msgs.At(0)
				o.Add(q.Name, core.DecodeTupleVal(ob[:0], p).T)
			}
		}),
	}
	k.apply(job)
	return job, nil
}
