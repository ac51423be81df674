package baselines

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

// TestKernelJobsMatchReference is the differential test of the two job
// shapes: HPAR's outer-join stages built as reconcile tables
// (core.NewOuterJoinJob), and SEQ's union and HPAR's filter built as one
// distinct job (core.NewDistinctJob), against the hand-written jobs they
// replaced (kept below as the reference). Over A1–A5, B1, B2 and a query
// whose guard relation is also a conditional atom, at widths 1 and 4,
// with runtime skew splitting off and on, every job's stats must be
// deep-equal and every output relation tuple-for-tuple equal.
func TestKernelJobsMatchReference(t *testing.T) {
	const scale = 2e-5 // 2000 guard tuples
	self := workload.Workload{
		Name:        "self",
		Program:     sgf.MustParse(`Z := SELECT x, y FROM R(x, y, z) WHERE R(y, x, z) OR (S(x) AND NOT R(x, x, z));`),
		GuardTuples: workload.PaperGuardTuples, CondTuples: workload.PaperGuardTuples,
		MatchFrac: 0.5, Seed: 1,
	}
	works := append(append(workload.AQueries(), workload.BQueries()...), self)
	split := 0
	for _, w := range works {
		w.Zipf = 0.8 // skew, so the splitter has heavy partitions to cut
		db := thinned(w, scale)
		queries := w.Program.Queries
		seq, err := core.SeqPlanMulti("seq", queries)
		if err != nil {
			t.Fatal(err)
		}
		refSeq := *seq
		refSeq.Jobs = append([]*mr.Job(nil), seq.Jobs...)
		for i, j := range refSeq.Jobs {
			if strings.HasSuffix(j.Name, "/union") {
				q := unionQuery(queries, j)
				refSeq.Jobs[i] = refUnionProjectJob(j.Name, q.Name, q.Guard, q.Select, j.Inputs)
			}
		}
		hpar, err := HParPlan("hpar", queries)
		if err != nil {
			t.Fatal(err)
		}
		refHPar, err := mergeIndependent("hpar", StrategyHPAR, queries, refHParSingle)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*core.Plan{{seq, &refSeq}, {hpar, refHPar}} {
			for _, width := range []int{1, 4} {
				for _, ratio := range []float64{0, 1.3} {
					e := mr.NewEngine(mr.Config{Cost: cost.Default().Scaled(scale), Workers: width, SkewSplit: ratio})
					got, gotStats := runProgram(t, e, pair[0], db)
					want, wantStats := runProgram(t, e, pair[1], db)
					label := fmt.Sprintf("%s %s width %d split %v", w.Name, pair[0].Strategy, width, ratio)
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Errorf("%s: stats\n%+v\nreference\n%+v", label, gotStats, wantStats)
					}
					if !reflect.DeepEqual(got.Names(), want.Names()) {
						t.Errorf("%s: relations %v, reference %v", label, got.Names(), want.Names())
						continue
					}
					for _, name := range want.Names() {
						if g, r := got.Relation(name), want.Relation(name); !reflect.DeepEqual(g.Tuples(), r.Tuples()) {
							t.Errorf("%s: relation %s: %d tuples, reference %d", label, name, g.Size(), r.Size())
						}
					}
					for _, s := range gotStats {
						split += s.SplitReduceTasks
					}
				}
			}
		}
	}
	if split == 0 {
		t.Error("no run cut a partition: the split rows test nothing")
	}
}

// thinned is w's database at scale with every conditional-only relation
// thinned differently: the generator draws them all from one
// seed, so the atoms of one outer-join stage would otherwise flag every
// tuple alike and a mixed-up flag column would go unseen.
func thinned(w workload.Workload, scale float64) *relation.Database {
	db := w.Build(scale)
	guards := map[string]bool{}
	for _, q := range w.Program.Queries {
		guards[q.Guard.Rel] = true
	}
	for ri, name := range db.Names() {
		if r := db.Relation(name); !guards[name] {
			var kept []relation.Tuple
			for i, t := range r.Tuples() {
				if i%(ri+2) != 0 {
					kept = append(kept, t)
				}
			}
			db.Put(relation.FromTuples(name, r.Arity(), kept))
		}
	}
	return db
}

// unionQuery returns the query whose SEQ union job j is.
func unionQuery(queries []*sgf.BSGF, j *mr.Job) *sgf.BSGF {
	for name := range j.Outputs {
		for _, q := range queries {
			if q.Name == name {
				return q
			}
		}
	}
	panic("union job " + j.Name + " writes no query")
}

func runProgram(t *testing.T, e *mr.Engine, plan *core.Plan, db *relation.Database) (*relation.Database, []mr.JobStats) {
	t.Helper()
	outs, stats, _, err := e.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
	if err != nil {
		t.Fatalf("%s: %v", plan.Name, err)
	}
	return outs, stats
}

// The reference jobs: HPAR's stage and filter jobs and SEQ's union job
// as they were written before the kernel built them.

func refHParSingle(name string, q *sgf.BSGF) (*core.Plan, error) {
	atoms := q.CondAtoms()
	k := HiveKnobs()
	plan := &core.Plan{Name: name, Strategy: StrategyHPAR}
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
		job := refHParStageJob(fmt.Sprintf("%s/join%d", name, si), q, st.atoms, prevRel, out,
			si == 0, guardArity+flagsSoFar, k)
		plan.AddJob(job)
		prevRel = out
		flagsSoFar += len(st.atoms)
	}

	flagPos := make([]int, len(atoms))
	col := guardArity
	for _, st := range stages {
		for _, ai := range st.atomIdx {
			flagPos[ai] = col
			col++
		}
	}
	filter, err := refHParFilterJob(name+"/filter", q, prevRel, guardArity+len(atoms), flagPos, k)
	if err != nil {
		return nil, err
	}
	plan.AddJob(filter)
	return plan, nil
}

func refHParStageJob(name string, q *sgf.BSGF, stageAtoms []sgf.Atom, inRel, outRel string, first bool, inArity int, k Knobs) *mr.Job {
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
		Mapper: mr.MapperFunc(func(part int, id int, t relation.Tuple, emit *mr.Emitter) {
			var kb [48]byte
			input := inputs[part] // the job's Inputs
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

func refHParFilterJob(name string, q *sgf.BSGF, inRel string, inArity int, flagPos []int, k Knobs) (*mr.Job, error) {
	atomIdx := make(map[string]int, len(flagPos))
	for ai, a := range q.CondAtoms() {
		atomIdx[a.Key()] = ai
	}
	cond, err := sgf.CompileCondition(q.Where, func(k string) (int, bool) {
		ai, ok := atomIdx[k]
		return ai, ok
	})
	if err != nil {
		return nil, err
	}
	words := (len(flagPos) + 63) / 64
	project := sgf.NewProjector(q.Guard, q.Select)
	guardMatcher := sgf.NewMatcher(q.Guard)
	rawGuard := inRel == q.Guard.Rel
	job := &mr.Job{
		Name:    name,
		Inputs:  []string{inRel},
		Outputs: map[string]int{q.Name: q.OutArity()},
		Mapper: mr.MapperFunc(func(_ int, id int, t relation.Tuple, emit *mr.Emitter) {
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

func refUnionProjectJob(name, out string, guard sgf.Atom, selectVars []string, branchRels []string) *mr.Job {
	project := sgf.NewProjector(guard, selectVars)
	matcher := sgf.NewMatcher(guard)
	inputs := append([]string(nil), branchRels...)
	mapper := mr.MapperFunc(func(_ int, id int, t relation.Tuple, emit *mr.Emitter) {
		if !matcher.Matches(t) {
			return
		}
		var kb [32]byte
		var ob [8]relation.Value
		p := project.AppendTo(ob[:0], t)
		core.TupleVal{T: p}.Emit(emit, p.AppendKey(kb[:0]))
	})
	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, o *mr.Output) {
		if msgs.Len() > 0 {
			var ob [8]relation.Value
			_, p := msgs.At(0)
			o.Add(out, core.DecodeTupleVal(ob[:0], p).T)
		}
	})
	return &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: map[string]int{out: len(selectVars)},
		Mapper:  mapper,
		Reducer: reducer,
		Packing: true,
	}
}
