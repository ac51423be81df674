package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Gain computes gain(S_i, S_j) = cost(S_i) + cost(S_j) − cost(S_i ∪ S_j):
// the total cost saved by evaluating both equation groups in one MSJ job
// (§4.4).
func (e *Estimator) Gain(eqs []Equation, si, sj []int) float64 {
	union := append(append([]int(nil), si...), sj...)
	return e.MSJCost(eqs, si) + e.MSJCost(eqs, sj) - e.MSJCost(eqs, union)
}

// GreedyBSGF computes a partition of the equation set by greedy gain
// merging (the Greedy-BSGF algorithm of §4.4, after Wang et al.):
// starting from singletons, repeatedly merge the pair of groups with the
// largest positive gain until no merge helps. The result lists equation
// indices per group, in deterministic order.
func (e *Estimator) GreedyBSGF(eqs []Equation) [][]int {
	groups := make([][]int, len(eqs))
	for i := range eqs {
		groups[i] = []int{i}
	}
	costs := make([]float64, len(groups))
	for i := range groups {
		costs[i] = e.MSJCost(eqs, groups[i])
	}
	for len(groups) > 1 {
		bestI, bestJ := -1, -1
		bestGain := 0.0
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				union := append(append([]int(nil), groups[i]...), groups[j]...)
				g := costs[i] + costs[j] - e.MSJCost(eqs, union)
				if g > bestGain+1e-12 {
					bestGain = g
					bestI, bestJ = i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		merged := append(append([]int(nil), groups[bestI]...), groups[bestJ]...)
		sort.Ints(merged)
		mergedCost := e.MSJCost(eqs, merged)
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
		costs = append(costs[:bestJ], costs[bestJ+1:]...)
		groups[bestI] = merged
		costs[bestI] = mergedCost
	}
	sortPartition(groups)
	return groups
}

// Singletons returns the no-grouping partition (the PAR strategy).
func Singletons(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = []int{i}
	}
	return out
}

// OneGroup returns the everything-in-one-job partition.
func OneGroup(n int) [][]int {
	if n == 0 {
		return nil
	}
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return [][]int{g}
}

// ErrPlanTooLarge is returned by the exact planners (BruteForceBSGF,
// BruteForceSGF and OptPlan, built on the first) for an input past their
// enumeration limit; the message states the limit and the size. Both
// problems are NP-complete (Theorems 1 and 2), so the limit is
// principled, and on the server the size is a client's choice.
var ErrPlanTooLarge = errors.New("core: too large to plan by exhaustive enumeration")

// The exact planners' limits: Bell(12) is 4.2 million set partitions.
const (
	maxBruteForceEquations = 12
	maxBruteForceQueries   = 10
)

// BruteForceBSGF solves BSGF-Opt exactly by enumerating every set
// partition of the equations (Bell-number many; the decision problem is
// NP-complete, Theorem 1) and returning a minimum-cost partition. It is
// intended for small n (tests and the optimal baselines of §5) and
// returns ErrPlanTooLarge past maxBruteForceEquations.
func (e *Estimator) BruteForceBSGF(eqs []Equation) ([][]int, float64, error) {
	n := len(eqs)
	if n == 0 {
		return nil, 0, nil
	}
	if n > maxBruteForceEquations {
		return nil, 0, fmt.Errorf("%w: OPT enumerates every grouping of at most %d semi-joins, this query has %d",
			ErrPlanTooLarge, maxBruteForceEquations, n)
	}
	var best [][]int
	bestCost := 0.0
	assign := make([]int, n) // equation -> group id
	var rec func(i, groups int)
	costOf := func(groups int) float64 {
		parts := make([][]int, groups)
		for eq, g := range assign {
			parts[g] = append(parts[g], eq)
		}
		total := 0.0
		for _, p := range parts {
			total += e.MSJCost(eqs, p)
		}
		return total
	}
	rec = func(i, groups int) {
		if i == n {
			c := costOf(groups)
			if best == nil || c < bestCost-1e-12 {
				parts := make([][]int, groups)
				for eq, g := range assign {
					parts[g] = append(parts[g], eq)
				}
				best = parts
				bestCost = c
			}
			return
		}
		for g := 0; g <= groups; g++ {
			assign[i] = g
			next := groups
			if g == groups {
				next++
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
	sortPartition(best)
	return best, bestCost, nil
}

// PartitionCost prices a partition: Σ over groups of the MSJ job cost.
func (e *Estimator) PartitionCost(eqs []Equation, partition [][]int) float64 {
	total := 0.0
	for _, g := range partition {
		if len(g) > 0 {
			total += e.MSJCost(eqs, g)
		}
	}
	return total
}

// ValidPartition checks that partition is a partition of 0..n-1.
func ValidPartition(partition [][]int, n int) bool {
	seen := make([]bool, n)
	count := 0
	for _, g := range partition {
		for _, i := range g {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			count++
		}
	}
	return count == n
}

// sortPartition orders groups internally and by first element, for
// deterministic output.
func sortPartition(p [][]int) {
	for _, g := range p {
		sort.Ints(g)
	}
	sort.Slice(p, func(i, j int) bool {
		if len(p[i]) == 0 || len(p[j]) == 0 {
			return len(p[i]) > len(p[j])
		}
		return p[i][0] < p[j][0]
	})
}

// PartitionString renders a partition as "{0,1}{2}" for logs and tests.
func PartitionString(p [][]int) string {
	var sb strings.Builder
	for _, g := range p {
		sb.WriteByte('{')
		for i, x := range g {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", x)
		}
		sb.WriteByte('}')
	}
	return sb.String()
}
