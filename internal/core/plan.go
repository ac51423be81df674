package core

import (
	"fmt"
	"slices"

	"repro/internal/mr"
	"repro/internal/sgf"
)

// Strategy names the evaluation strategies compared in §5.
type Strategy string

const (
	// StrategySEQ evaluates semi-joins sequentially, each applied to the
	// output of the previous step (the paper's SEQ / SEQUNIT bases).
	StrategySEQ Strategy = "SEQ"
	// StrategyPAR evaluates every semi-join as its own parallel MSJ job
	// followed by EVAL (parallelization without grouping).
	StrategyPAR Strategy = "PAR"
	// StrategyGreedy groups semi-joins with Greedy-BSGF, then EVAL.
	StrategyGreedy Strategy = "GREEDY"
	// StrategyOpt uses the brute-force optimal grouping (small queries).
	StrategyOpt Strategy = "OPT"
	// StrategyOneRound fuses MSJ and EVAL into a single job when the
	// query shape allows it (§5.1 optimization (4)).
	StrategyOneRound Strategy = "1-ROUND"
	// StrategySeqUnit evaluates an SGF program one BSGF at a time.
	StrategySeqUnit Strategy = "SEQUNIT"
	// StrategyParUnit evaluates an SGF program level by level.
	StrategyParUnit Strategy = "PARUNIT"
	// StrategyGreedySGF uses the Greedy-SGF multiway topological sort
	// with Greedy-BSGF per group.
	StrategyGreedySGF Strategy = "GREEDY-SGF"
)

// Plan is an executable MR program (§3.2). Its job dependency graph is
// not stored but derived by Deps: the data edges of the jobs' declared
// read sets, plus the group barriers of a multiway topological sort,
// which SEQUNIT, PARUNIT and GREEDY-SGF impose on top of the data flow.
type Plan struct {
	Name     string
	Strategy Strategy
	Jobs     []*mr.Job
	// Barriers lists, ascending, the indices of the jobs that open a new
	// group of a multiway sort (SGFPlan): every job of a group waits for
	// every job of the group before it. Nil for a plan of one group.
	Barriers []int
}

// Deps derives the plan's job dependency graph: for each job, the
// ascending, duplicate-free indices of the jobs it waits for. These are
// the producer of each relation the job reads — mr.Program.ReadSets, the
// very edges the engine's pipelined scheduler wires, so every job
// constructor in this package must declare its read set completely and
// exactly in Job.Inputs — and, for a job past a barrier, every job of
// the previous group. Barrier edges reach only the cluster simulator:
// the engine runs on the data edges alone.
func (p *Plan) Deps() [][]int {
	reads := p.Program().ReadSets()
	deps := make([][]int, len(p.Jobs))
	b := 0 // barriers at or before job i
	for i, set := range reads {
		for b < len(p.Barriers) && p.Barriers[b] <= i {
			b++
		}
		var d []int
		if b > 0 {
			lo := 0
			if b > 1 {
				lo = p.Barriers[b-2]
			}
			for j := lo; j < p.Barriers[b-1]; j++ {
				d = append(d, j)
			}
		}
		for _, pi := range set {
			if pi >= 0 {
				d = append(d, pi)
			}
		}
		slices.Sort(d)
		deps[i] = slices.Compact(d)
	}
	return deps
}

// Rounds returns the number of rounds of a dependency graph in Deps's
// form: the length of its longest chain.
func Rounds(deps [][]int) int {
	depth := make([]int, len(deps))
	max := 0
	for i, d := range deps {
		depth[i] = 1
		for _, pi := range d {
			if depth[pi]+1 > depth[i] {
				depth[i] = depth[pi] + 1
			}
		}
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// Rounds returns the plan's number of rounds, the longest chain of Deps.
func (p *Plan) Rounds() int { return Rounds(p.Deps()) }

// Program converts the plan to an mr.Program.
func (p *Plan) Program() *mr.Program { return &mr.Program{Jobs: p.Jobs} }

// AddJob appends a job.
func (p *Plan) AddJob(j *mr.Job) { p.Jobs = append(p.Jobs, j) }

// MergePlans concatenates independent sub-plans: no barriers, and any
// data dependency between them follows from their jobs' read sets.
func MergePlans(name string, strategy Strategy, subs []*Plan) *Plan {
	plan := &Plan{Name: name, Strategy: strategy}
	for _, sub := range subs {
		plan.Jobs = append(plan.Jobs, sub.Jobs...)
	}
	return plan
}

// SeqPlanMulti builds the SEQ strategy for several independent queries:
// each query's sequential chain runs in parallel with the others (each
// chain is internally sequential).
func SeqPlanMulti(name string, queries []*sgf.BSGF) (*Plan, error) {
	subs := make([]*Plan, len(queries))
	for i, q := range queries {
		sub, err := SeqPlan(fmt.Sprintf("%s/q%d", name, i), q)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return MergePlans(name, StrategySEQ, subs), nil
}

// BasicPlan builds the basic MR program of §4.4/§4.5 for a set of
// independent BSGF queries: one MSJ job per partition group of the
// semi-join set, plus a single EVAL job computing every query's Boolean
// combination. The partition groups index into eqs (ExtractEquations
// order). heavy is the set of join keys the MSJ jobs salt (see
// NewMSJJobSkew); nil builds the plain jobs — the EVAL job's keys are
// guard-tuple ids and skew-free by construction.
func BasicPlan(name string, strategy Strategy, queries []*sgf.BSGF, eqs []Equation, partition [][]int, heavy map[string]bool) (*Plan, error) {
	if !ValidPartition(partition, len(eqs)) {
		return nil, fmt.Errorf("core: %s: invalid partition %s over %d equations", name, PartitionString(partition), len(eqs))
	}
	plan := &Plan{Name: name, Strategy: strategy}
	for gi, group := range partition {
		if len(group) == 0 {
			continue
		}
		sub := make([]Equation, len(group))
		for k, i := range group {
			sub[k] = eqs[i]
		}
		job, err := NewMSJJobSkew(fmt.Sprintf("%s/msj%d", name, gi), sub, heavy)
		if err != nil {
			return nil, err
		}
		plan.AddJob(job)
	}
	specs := make([]EvalSpec, len(queries))
	for qi, q := range queries {
		atoms := q.CondAtoms()
		xnames := make([]string, len(atoms))
		for ai := range atoms {
			xnames[ai] = XName(q.Name, ai)
		}
		specs[qi] = EvalSpec{Query: q, XNames: xnames}
	}
	eval, err := NewEvalJob(name+"/eval", specs)
	if err != nil {
		return nil, err
	}
	plan.AddJob(eval)
	return plan, nil
}

// ParPlan is BasicPlan with singleton groups: every semi-join in its own
// job (the PAR strategy).
func ParPlan(name string, queries []*sgf.BSGF) (*Plan, error) {
	eqs := ExtractEquations(queries)
	return BasicPlan(name, StrategyPAR, queries, eqs, Singletons(len(eqs)), nil)
}

// GreedyPlan is BasicPlan with the Greedy-BSGF partition (the GREEDY
// strategy / GOPT of §4.4).
func (e *Estimator) GreedyPlan(name string, queries []*sgf.BSGF) (*Plan, error) {
	eqs := ExtractEquations(queries)
	return BasicPlan(name, StrategyGreedy, queries, eqs, e.GreedyBSGF(eqs), nil)
}

// OptPlan is BasicPlan with the brute-force optimal partition (OPT); it
// fails with ErrPlanTooLarge where BruteForceBSGF does.
func (e *Estimator) OptPlan(name string, queries []*sgf.BSGF) (*Plan, error) {
	eqs := ExtractEquations(queries)
	part, _, err := e.BruteForceBSGF(eqs)
	if err != nil {
		return nil, err
	}
	return BasicPlan(name, StrategyOpt, queries, eqs, part, nil)
}

// OneRoundPlan builds the fused single-job plan for the queries; every
// query must be 1-round applicable.
func OneRoundPlan(name string, queries []*sgf.BSGF) (*Plan, error) {
	job, err := NewOneRoundJob(name+"/1round", queries)
	if err != nil {
		return nil, err
	}
	return &Plan{Name: name, Strategy: StrategyOneRound, Jobs: []*mr.Job{job}}, nil
}

// SeqPlan builds the sequential plan for one BSGF query: the condition
// is normalized to DNF; each disjunct becomes a chain of semi-join /
// anti-join filter steps applied to the output of the previous step, and
// a final union job projects and deduplicates (chains of different
// disjuncts run in parallel, as the paper notes for B2). Queries whose
// DNF explodes are rejected.
func SeqPlan(name string, q *sgf.BSGF) (*Plan, error) {
	dnfForm, err := ToDNF(q.Where)
	if err != nil {
		return nil, fmt.Errorf("core: SEQ plan for %s: %w", q.Name, err)
	}
	plan := &Plan{Name: name, Strategy: StrategySEQ}
	var branchRels []string // final relation of each disjunct chain
	var satDisjuncts [][]Literal
	for _, disjunct := range dnfForm {
		lits, sat := dedupeLiterals(disjunct)
		if sat {
			satDisjuncts = append(satDisjuncts, lits)
		}
	}
	if len(satDisjuncts) == 0 {
		return nil, fmt.Errorf("core: SEQ plan for %s: condition is unsatisfiable", q.Name)
	}
	// A single TRUE disjunct (no WHERE clause) reduces to a plain
	// project-and-deduplicate job over the guard.
	singleDisjunct := len(satDisjuncts) == 1 && len(satDisjuncts[0]) > 0

	for di, lits := range satDisjuncts {
		prevRel := q.Guard.Rel
		if len(lits) == 0 {
			// TRUE disjunct: the branch is the guard relation itself.
			branchRels = append(branchRels, q.Guard.Rel)
			continue
		}
		for li, lit := range lits {
			last := li == len(lits)-1
			out := fmt.Sprintf("SEQ_%s_d%d_s%d", sanitizeName(q.Name), di, li)
			var project []string
			if last && singleDisjunct {
				out = q.Name
				project = q.Select
			}
			step := FilterStep{
				Out:      out,
				GuardRel: prevRel,
				Guard:    q.Guard,
				Cond:     lit.Atom,
				Negated:  lit.Negated,
				Project:  project,
			}
			job, err := NewFilterJob(fmt.Sprintf("%s/d%d-s%d", name, di, li), step)
			if err != nil {
				return nil, err
			}
			plan.AddJob(job)
			prevRel = out
		}
		branchRels = append(branchRels, prevRel)
	}
	if !singleDisjunct {
		union, err := NewUnionProjectJob(name+"/union", q.Name, q.Guard, q.Select, branchRels)
		if err != nil {
			return nil, err
		}
		plan.AddJob(union)
	}
	return plan, nil
}
