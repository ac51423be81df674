package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/sgf"
	"repro/internal/workload"
)

// pinned is what the planner reads off one group of queries: the
// Greedy-BSGF partition of its equations, the bits of MSJCost for every
// singleton group and then for the one group of all of them, and the bits
// of EvalCost for every query alone and then for all of them.
type pinned struct {
	partition string
	msj, eval []uint64
}

// pinnedCases are the paper's A and B queries and every Greedy-SGF group
// of its C queries at scale 1e-4, each group priced by the estimator of
// its workload (so the C groups' derived relations take their analytic
// bound).
func pinnedCases() (names []string, got map[string]pinned) {
	got = make(map[string]pinned)
	const scale = 1e-4
	wls := append(append(workload.AQueries(), workload.BQueries()...), workload.A3K(8))
	for _, wl := range append(wls, workload.CQueries()...) {
		est := NewEstimator(cost.Default().Scaled(scale), cost.Gumbo, wl.Build(scale), wl.Program)
		groups := [][]*sgf.BSGF{wl.Program.Queries}
		if slices.ContainsFunc(workload.CQueries(), func(c workload.Workload) bool { return c.Name == wl.Name }) {
			groups = nil
			for _, g := range GreedySGF(wl.Program) {
				var qs []*sgf.BSGF
				for _, qi := range g {
					qs = append(qs, wl.Program.Queries[qi])
				}
				groups = append(groups, qs)
			}
		}
		for gi, qs := range groups {
			name := wl.Name
			if len(groups) > 1 {
				name = fmt.Sprintf("%s/g%d", wl.Name, gi)
			}
			eqs := ExtractEquations(qs)
			var p pinned
			p.partition = PartitionString(est.GreedyBSGF(eqs))
			for _, g := range append(Singletons(len(eqs)), OneGroup(len(eqs))...) {
				p.msj = append(p.msj, math.Float64bits(est.MSJCost(eqs, g)))
			}
			for _, q := range qs {
				p.eval = append(p.eval, math.Float64bits(est.EvalCost([]*sgf.BSGF{q})))
			}
			p.eval = append(p.eval, math.Float64bits(est.EvalCost(qs)))
			names = append(names, name)
			got[name] = p
		}
	}
	return names, got
}

// TestEstimatorPinned holds the planner's estimates to the bit: any change
// to how a stream is sampled or sized — Emit's size rule included — that
// moves a cost or a greedy choice fails here, and a deliberate one updates
// the table below (the failure prints the new entry).
func TestEstimatorPinned(t *testing.T) {
	names, got := pinnedCases()
	for _, name := range names {
		g, want := got[name], pinnedEstimates[name]
		if g.partition != want.partition || !slices.Equal(g.msj, want.msj) || !slices.Equal(g.eval, want.eval) {
			t.Errorf("%s: got\n\t%q: {%q, %#v, %#v},", name, name, g.partition, g.msj, g.eval)
		}
	}
	if len(pinnedEstimates) != len(names) {
		t.Errorf("%d pinned groups, %d priced", len(pinnedEstimates), len(names))
	}
}

// pinnedEstimates are the planner's figures as recorded when this test
// was added.
var pinnedEstimates = map[string]pinned{
	"A1":    {"{0,1,2,3}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4aef212d7732, 0x3fbe4348bac710cc, 0x3fbe40bbedfa43fe, 0x3fd3294afb7e9100}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99}},
	"A2":    {"{0,1,2,3}", []uint64{0x3fbe3e2f212d7732, 0x3fbe471bedfa43fe, 0x3fbe40bbedfa43fe, 0x3fbe3f758793dd98, 0x3fd183842dde907c}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99}},
	"A3":    {"{0,1,2,3}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4018bac710cc, 0x3fbe3f758793dd98, 0x3fbe3c458793dd98, 0x3fd2ab8bc84b5dcc}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99}},
	"A4":    {"{0,1,2,3,4,5,6,7}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4aef212d7732, 0x3fbe4348bac710cc, 0x3fbe40bbedfa43fe, 0x3fbe471bedfa43fe, 0x3fbe4b925460aa65, 0x3fbe4348bac710cc, 0x3fbe3f758793dd98, 0x3fe32569e425aee6}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99, 0x3fe38c4a4a8c154c}},
	"A5":    {"{0,1,2,3,4,5,6,7}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4aef212d7732, 0x3fbe4348bac710cc, 0x3fbe40bbedfa43fe, 0x3fbe415f212d7732, 0x3fbe49058793dd98, 0x3fbe415f212d7732, 0x3fbe3f758793dd98, 0x3fe047251758e219}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99, 0x3fe38c4a4a8c154c}},
	"B1":    {"{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}", []uint64{0x3fbe3e2f212d7732, 0x3fbe471bedfa43fe, 0x3fbe40bbedfa43fe, 0x3fbe3f758793dd98, 0x3fbe4018bac710cc, 0x3fbe49058793dd98, 0x3fbe42a58793dd98, 0x3fbe415f212d7732, 0x3fbe3f758793dd98, 0x3fbe48625460aa65, 0x3fbe42025460aa65, 0x3fbe40bbedfa43fe, 0x3fbe3c458793dd98, 0x3fbe45325460aa65, 0x3fbe3ed25460aa65, 0x3fbe3d8bedfa43fe, 0x3fefe793c570c0c2}, []uint64{0x3fe3c25a4a8c154c, 0x3fe3c25a4a8c154c}},
	"B2":    {"{0,1,2,3}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4018bac710cc, 0x3fbe3f758793dd98, 0x3fbe3c458793dd98, 0x3fd2ab8bc84b5dcc}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99}},
	"A3(8)": {"{0,1,2,3,4,5,6,7}", []uint64{0x3fbe415f212d7732, 0x3fbe40bbedfa43fe, 0x3fbe4018bac710cc, 0x3fbe45325460aa65, 0x3fbe415f212d7732, 0x3fbe3d8bedfa43fe, 0x3fbe3f758793dd98, 0x3fbe3ed25460aa65, 0x3fe0bfcab0f27bb3}, []uint64{0x3fda37b495182a99, 0x3fda37b495182a99}},
	"C1/g0": {"{0,1}", []uint64{0x3fbe3e2f212d7732, 0x3fbe471bedfa43fe, 0x3fc5b9f41b8fabc3}, []uint64{0x3fc754292a305532, 0x3fc754292a305532}},
	"C1/g1": {"{0,1,2,3}", []uint64{0x3fbe43ebedfa43fe, 0x3fbe47bf212d7732, 0x3fbe6dff212d7732, 0x3fbe6d5bedfa43fe, 0x3fd2262bb76d3103}, []uint64{0x3fc754292a305532, 0x3fc754292a305532, 0x3fd5bdbe61624016}},
	"C1/g2": {"{0,1}", []uint64{0x3fbe42a58793dd98, 0x3fbe3ed25460aa65, 0x3fc5b879496521be}, []uint64{0x3fc754292a305532, 0x3fc754292a305532}},
	"C1/g3": {"{0,1}", []uint64{0x3fbe712f212d7732, 0x3fbe73bbedfa43fe, 0x3fc5f9c6ee9cec4b}, []uint64{0x3fc754292a305532, 0x3fc754292a305532}},
	"C2/g0": {"{0,1}", []uint64{0x3fbe3e2f212d7732, 0x3fbe471bedfa43fe, 0x3fc5b9f41b8fabc3}, []uint64{0x3fc754292a305532, 0x3fc754292a305532}},
	"C2/g1": {"{0,1,2,3}", []uint64{0x3fbe43ebedfa43fe, 0x3fbe47bf212d7732, 0x3fbe708bedfa43fe, 0x3fbe745f212d7732, 0x3fd1d55e1dd3976a}, []uint64{0x3fc754292a305532, 0x3fc754292a305532, 0x3fd5bdbe61624016}},
	"C2/g2": {"{0,1,2,3}", []uint64{0x3fbe42a58793dd98, 0x3fbe3ed25460aa65, 0x3fbe708bedfa43fe, 0x3fbe6cb8bac710cc, 0x3fd1d299ed4f42d2}, []uint64{0x3fc754292a305532, 0x3fc754292a305532, 0x3fd5bdbe61624016}},
	"C2/g3": {"{0,1}", []uint64{0x3fbe6d5bedfa43fe, 0x3fbe7648bac710cc, 0x3fc5f923bb69b918}, []uint64{0x3fc754292a305532, 0x3fc754292a305532}},
	"C3/g0": {"{0,1,2,3}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4aef212d7732, 0x3fbe4aef212d7732, 0x3fbe448f212d7732, 0x3fd4ab1e0dc7d5e2}, []uint64{0x3fc754292a305532, 0x3fc400e92a305532, 0x3fc400e92a305532, 0x3fde0abe61624016}},
	"C3/g1": {"{0,1,2,3,4,5,6,7,8}", []uint64{0x3fbe708bedfa43fe, 0x3fbe4348bac710cc, 0x3fbe3ba25460aa65, 0x3fbe4018bac710cc, 0x3fbe708bedfa43fe, 0x3fbe3c458793dd98, 0x3fbe4aef212d7732, 0x3fbe4348bac710cc, 0x3fbe6ea25460aa65, 0x3fe59b84cf5cd5bb}, []uint64{0x3fc754292a305532, 0x3fcaa7692a305532, 0x3fcdfaa92a305532, 0x3fe3f3ba4a8c154c}},
	"C3/g2": {"{0,1,2}", []uint64{0x3fbe745f212d7732, 0x3fbe49058793dd98, 0x3fbe4348bac710cc, 0x3fce5eddf6fd21ff}, []uint64{0x3fcaa7692a305532, 0x3fcaa7692a305532}},
	"C4/g0": {"{0,1,2,3,4,5,6,7}", []uint64{0x3fbe3e2f212d7732, 0x3fbe4aef212d7732, 0x3fbe4348bac710cc, 0x3fbe3e2f212d7732, 0x3fbe43ebedfa43fe, 0x3fbe48625460aa65, 0x3fbe3ed25460aa65, 0x3fbe43ebedfa43fe, 0x3fe0fc70c08ce1f9}, []uint64{0x3fc754292a305532, 0x3fc754292a305532, 0x3fc754292a305532, 0x3fc754292a305532, 0x3fe5b8d416d62aca}},
	"C4/g1": {"{0,1,2,3}", []uint64{0x3fbe708bedfa43fe, 0x3fbe6cb8bac710cc, 0x3fbe712f212d7732, 0x3fbe73bbedfa43fe, 0x3fd3568e2eb1c432}, []uint64{0x3fd3913495182a99, 0x3fd3913495182a99}},
}
