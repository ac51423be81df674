package core

import (
	"math"
	"testing"

	"repro/internal/sgf"
)

func TestGadgetPerQueryCosts(t *testing.T) {
	// Appendix A: with all constants zero except hr = 1, the plan cost
	// of each f_i alone equals a_i (in gadget units).
	a := []int{2, 5, 9}
	g := SubsetSumGadget(a)
	est := g.Estimator()
	for i, ai := range a {
		q := g.Program.Queries[i]
		eqs := ExtractEquations([]*sgf.BSGF{q})
		partition := est.GreedyBSGF(eqs)
		got := est.BasicCost([]*sgf.BSGF{q}, eqs, partition) / g.Unit
		if math.Abs(got-float64(ai)) > 1e-6 {
			t.Errorf("cost(GOPT({f%d})) = %v units, want %d", i+1, got, ai)
		}
	}
}

func TestGadgetPairCosts(t *testing.T) {
	// cost(GOPT({f_i, f_j})) = a_i + a_j: no sharing between distinct
	// f_i, f_j.
	a := []int{3, 4}
	g := SubsetSumGadget(a)
	est := g.Estimator()
	queries := g.Program.Queries[:2]
	eqs := ExtractEquations(queries)
	partition := est.GreedyBSGF(eqs)
	got := est.BasicCost(queries, eqs, partition) / g.Unit
	if math.Abs(got-7) > 1e-6 {
		t.Errorf("cost(GOPT({f1,f2})) = %v units, want 7", got)
	}
}

func TestGadgetGroupingWithFo(t *testing.T) {
	// GOPT always groups f_i with f◦ because every relation of f_i
	// appears in f◦: the grouped cost is γ.
	a := []int{2, 5}
	g := SubsetSumGadget(a)
	est := g.Estimator()
	fo := g.Program.Queries[len(g.Program.Queries)-1]
	for i, ai := range a {
		queries := []*sgf.BSGF{g.Program.Queries[i], fo}
		eqs := ExtractEquations(queries)
		partition := est.GreedyBSGF(eqs)
		got := est.BasicCost(queries, eqs, partition) / g.Unit
		if math.Abs(got-float64(g.Gamma)) > 1e-6 {
			t.Errorf("cost(GOPT({f%d, fo})) = %v units, want γ=%d (a_i=%d)", i+1, got, g.Gamma, ai)
		}
	}
}

func TestGadgetSortCostsRealizeSubsetSums(t *testing.T) {
	// The achievable multiway-sort costs are exactly {γ + s : s a
	// subset sum of A}: the reduction of Theorem 2/4.
	a := []int{1, 2}
	g := SubsetSumGadget(a)
	est := g.Estimator()
	depGraph := sgf.BuildDepGraph(g.Program)
	achieved := make(map[int]bool)
	sgf.EnumerateMultiwayPartitions(depGraph, func(s sgf.MultiwaySort) bool {
		c := est.SortCost(g.Program, s) / g.Unit
		rounded := int(math.Round(c))
		if math.Abs(c-float64(rounded)) > 1e-6 {
			t.Errorf("non-integral sort cost %v for %v", c, s)
		}
		achieved[rounded] = true
		return true
	})
	want := make(map[int]bool)
	for s := range SubsetSums(a) {
		want[g.Gamma+s] = true
	}
	for w := range want {
		if !achieved[w] {
			t.Errorf("cost %d (γ+s) not achieved; achieved set: %v", w, achieved)
		}
	}
	for got := range achieved {
		if !want[got] {
			t.Errorf("achieved cost %d is not of the form γ+s; want set: %v", got, want)
		}
	}
}

func TestGadgetBruteForceOptimum(t *testing.T) {
	// The minimum sort cost is γ (B = ∅: group everything with f◦).
	a := []int{2, 3, 4}
	g := SubsetSumGadget(a)
	est := g.Estimator()
	_, best, err := est.BruteForceSGF(g.Program)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best/g.Unit-float64(g.Gamma)) > 1e-6 {
		t.Errorf("optimal sort cost = %v units, want γ=%d", best/g.Unit, g.Gamma)
	}
}

func TestSubsetSums(t *testing.T) {
	sums := SubsetSums([]int{1, 3})
	for _, want := range []int{0, 1, 3, 4} {
		if !sums[want] {
			t.Errorf("missing subset sum %d", want)
		}
	}
	if len(sums) != 4 {
		t.Errorf("sums = %v", sums)
	}
}
