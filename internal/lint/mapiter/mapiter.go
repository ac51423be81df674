// Package mapiter flags iteration over a map whose loop body reaches
// an order-sensitive sink.
//
// Go randomizes map iteration order, and the engine's bit-for-bit
// determinism contract (same outputs and stats at every pool width;
// docs/ARCHITECTURE.md "Determinism contract") requires every
// order-sensitive fold to run in a declared order. A `range` over a
// map that feeds mr.Emitter, mr.Output.Add, relation.Relation.Add/AddAll,
// or a JobStats/PartStats accumulation therefore silently breaks the
// reproducibility guarantee — the #1 historical cause. The fix recipe
// (docs/INVARIANTS.md): collect the keys, sort them, then iterate the
// sorted slice.
//
// Function literals inside the loop body are skipped: a closure
// collected during iteration and invoked after a sort is the sanctioned
// pattern, and flagging it would punish the fix.
package mapiter

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc:  "flags range-over-map loops whose body reaches an order-sensitive sink (Emit, Output.Add, Relation.Add, stats folds)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.Types[rng.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkBody(pass, rng)
			return true
		})
	}
	return nil
}

// checkBody reports each order-sensitive sink lexically reached inside
// the map-range body (descending through nested statements but not
// function literals).
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sink := callSink(pass, n); sink != "" {
				pass.Reportf(n.Pos(), "%s inside range over a map: iteration order is randomized and this sink is order-sensitive, breaking bit-for-bit determinism; collect and sort the keys, then iterate the slice", sink)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sink := statsSink(pass, lhs); sink != "" {
					pass.Reportf(n.Pos(), "%s inside range over a map: iteration order is randomized and stats folds must run in declared order; collect and sort the keys, then iterate the slice", sink)
				}
			}
		case *ast.IncDecStmt:
			if sink := statsSink(pass, n.X); sink != "" {
				pass.Reportf(n.Pos(), "%s inside range over a map: iteration order is randomized and stats folds must run in declared order; collect and sort the keys, then iterate the slice", sink)
			}
		}
		return true
	})
}

// callSink classifies call as an order-sensitive output call, returning
// a description or "".
func callSink(pass *analysis.Pass, call *ast.CallExpr) string {
	// Emitting: any call handed the map task's *mr.Emitter — the typed
	// encoders (core.Assert{...}.Emit(emit, key)), a mapper called by
	// another — or Emitter.Emit itself.
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && lintutil.PtrToNamed(t, "mr", "Emitter") {
			return "map-ordered emit"
		}
	}
	f := lintutil.FuncObj(pass.TypesInfo, call)
	switch {
	case lintutil.IsMethodOn(f, "mr", "Emitter", "Emit"):
		return "map-ordered emit"
	case lintutil.IsMethodOn(f, "mr", "Output", "Add"):
		return "map-ordered Output.Add"
	case lintutil.IsMethodOn(f, "relation", "Relation", "Add"),
		lintutil.IsMethodOn(f, "relation", "Relation", "AddAll"):
		return "map-ordered Relation." + f.Name()
	}
	return ""
}

// statsSink reports whether lvalue writes a field of the measurement
// structs whose folds are order-declared (JobStats, PartStats).
func statsSink(pass *analysis.Pass, lhs ast.Expr) string {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return ""
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if lintutil.NamedType(t, "mr", "JobStats") || lintutil.NamedType(t, "mr", "PartStats") {
		return "map-ordered stats fold (" + sel.Sel.Name + ")"
	}
	return ""
}
