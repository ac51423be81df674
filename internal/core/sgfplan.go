package core

import (
	"fmt"
	"sort"

	"repro/internal/sgf"
)

// GreedySGF computes a multiway topological sort of the program's
// dependency graph using the overlap heuristic of §4.6: vertices whose
// predecessors are all placed are inserted, one per iteration, into the
// existing group with maximal non-zero relation overlap that keeps the
// sort topological; otherwise they open a new group. Runs in O(n³).
func GreedySGF(p *sgf.Program) sgf.MultiwaySort {
	g := sgf.BuildDepGraph(p)
	n := g.N
	placed := make([]bool, n)       // red vertices
	groupOf := make(map[int]int, n) // vertex -> group index
	var groups sgf.MultiwaySort     // X = (F_1, ..., F_m)
	for done := 0; done < n; done++ {
		// D: blue vertices with no blue predecessors.
		var ready []int
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			ok := true
			for _, pr := range g.Pred[v] {
				if !placed[pr] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, v)
			}
		}
		sort.Ints(ready)
		// minGroup(v): the earliest group index v may join: strictly
		// after every placed predecessor's group.
		minGroup := func(v int) int {
			m := 0
			for _, pr := range g.Pred[v] {
				if gi, ok := groupOf[pr]; ok && gi+1 > m {
					m = gi + 1
				}
			}
			return m
		}
		bestV, bestG, bestOverlap := -1, -1, 0
		for _, v := range ready {
			for gi := minGroup(v); gi < len(groups); gi++ {
				ov := sgf.Overlap(p, v, groups[gi])
				if ov > bestOverlap {
					bestOverlap = ov
					bestV, bestG = v, gi
				}
			}
		}
		var v int
		if bestV >= 0 {
			v = bestV
			groups[bestG] = append(groups[bestG], v)
			groupOf[v] = bestG
		} else {
			v = ready[0]
			groups = append(groups, []int{v})
			groupOf[v] = len(groups) - 1
		}
		placed[v] = true
	}
	for _, f := range groups {
		sort.Ints(f)
	}
	return groups
}

// SortCost prices a multiway topological sort per Eq. 10:
// cost(F) = Σ_i cost(GOPT(F_i)), with GOPT the Greedy-BSGF plan of each
// group (its MSJ partition cost plus its EVAL job).
func (e *Estimator) SortCost(p *sgf.Program, s sgf.MultiwaySort) float64 {
	total := 0.0
	for _, group := range s {
		queries := make([]*sgf.BSGF, len(group))
		for i, qi := range group {
			queries[i] = p.Queries[qi]
		}
		eqs := ExtractEquations(queries)
		partition := e.GreedyBSGF(eqs)
		total += e.BasicCost(queries, eqs, partition)
	}
	return total
}

// BruteForceSGF solves SGF-Opt exactly: it enumerates every multiway
// topological sort (as partitions; Theorem 2 shows the decision problem
// is NP-complete) and returns one with minimal cost. Intended for small
// programs: past maxBruteForceQueries it returns ErrPlanTooLarge.
func (e *Estimator) BruteForceSGF(p *sgf.Program) (sgf.MultiwaySort, float64, error) {
	g := sgf.BuildDepGraph(p)
	if g.N > maxBruteForceQueries {
		return nil, 0, fmt.Errorf("%w: the exact planner enumerates every multiway sort of at most %d queries, this program has %d",
			ErrPlanTooLarge, maxBruteForceQueries, g.N)
	}
	var best sgf.MultiwaySort
	bestCost := 0.0
	sgf.EnumerateMultiwayPartitions(g, func(s sgf.MultiwaySort) bool {
		c := e.SortCost(p, s)
		if best == nil || c < bestCost-1e-12 {
			best = s.Clone()
			bestCost = c
		}
		return true
	})
	return best, bestCost, nil
}

// SeqUnitSort places every query in its own group, in definition order
// (the SEQUNIT strategy of §5.3).
func SeqUnitSort(p *sgf.Program) sgf.MultiwaySort {
	s := make(sgf.MultiwaySort, len(p.Queries))
	for i := range p.Queries {
		s[i] = []int{i}
	}
	return s
}

// ParUnitSort groups queries by dependency level (the PARUNIT strategy):
// queries on the same level run in parallel, levels run in sequence.
func ParUnitSort(p *sgf.Program) sgf.MultiwaySort {
	g := sgf.BuildDepGraph(p)
	return sgf.MultiwaySort(g.LevelGroups())
}

// GroupPlanner builds the plan for one group of independent queries.
type GroupPlanner func(name string, queries []*sgf.BSGF) (*Plan, error)

// SGFPlan assembles the full plan for an SGF program given a multiway
// topological sort: each group is planned by groupPlan, its jobs are
// appended in group order, and the first job of every group after the
// first is a barrier (every job of group i+1 waits for every job of
// group i; see Plan.Deps).
func SGFPlan(name string, strategy Strategy, p *sgf.Program, s sgf.MultiwaySort, groupPlan GroupPlanner) (*Plan, error) {
	g := sgf.BuildDepGraph(p)
	if !s.Valid(g) {
		return nil, fmt.Errorf("core: %s: invalid multiway topological sort %v", name, s)
	}
	plan := &Plan{Name: name, Strategy: strategy}
	for gi, group := range s {
		queries := make([]*sgf.BSGF, len(group))
		for i, qi := range group {
			queries[i] = p.Queries[qi]
		}
		sub, err := groupPlan(fmt.Sprintf("%s/g%d", name, gi), queries)
		if err != nil {
			return nil, err
		}
		if gi > 0 {
			plan.Barriers = append(plan.Barriers, len(plan.Jobs))
		}
		plan.Jobs = append(plan.Jobs, sub.Jobs...)
		plan.Outputs = append(plan.Outputs, sub.Outputs...)
	}
	return plan, nil
}

// SeqUnitPlan evaluates the program one query at a time, each query with
// separate per-semi-join jobs (PAR-style within the query).
func SeqUnitPlan(name string, p *sgf.Program) (*Plan, error) {
	return SGFPlan(name, StrategySeqUnit, p, SeqUnitSort(p), ParPlan)
}

// ParUnitPlan evaluates the program level by level, queries on the same
// level in parallel, each semi-join in a separate job.
func ParUnitPlan(name string, p *sgf.Program) (*Plan, error) {
	return SGFPlan(name, StrategyParUnit, p, ParUnitSort(p), ParPlan)
}

// GreedySGFPlan evaluates the program along the Greedy-SGF sort with
// Greedy-BSGF grouping inside each group.
func (e *Estimator) GreedySGFPlan(name string, p *sgf.Program) (*Plan, error) {
	return SGFPlan(name, StrategyGreedySGF, p, GreedySGF(p), e.GreedyPlan)
}
