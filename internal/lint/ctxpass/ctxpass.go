// Package ctxpass enforces context propagation through the engine's
// task-spawning layers.
//
// Cancellation in the engine is cooperative: runTasks polls its
// context at every task grant, so a canceled query stops within a
// bounded number of grants — but only if the context that reaches the
// pool is the caller's. A function below the API layer that
// manufactures its own root context (context.Background or
// context.TODO) detaches everything beneath it from client
// disconnects, per-query deadlines and the abort endpoint; the few
// places that own a run's lifetime (gumbo.RunPlan, the server's batch
// run, the lab's cancel and fault sweeps) carry //lint:ignore
// directives recording why they are the exception. Two checks:
//
//   - No context.Background()/context.TODO() outside package main and
//     test files. If the enclosing function already receives a
//     context, the fix is to propagate it; otherwise the function
//     should grow a context parameter (or be wrapped by an entry
//     point that does).
//   - A function that calls runTasks (the pool entry point) must
//     itself take a context.Context parameter — the pool's
//     cancellation guarantee is only as good as the context thread
//     that reaches it.
package ctxpass

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxpass",
	Doc:  "flags context.Background()/TODO() below the API layer and runTasks callers without a context.Context parameter",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // the cmd layer is where root contexts are made
	}
	for _, f := range pass.Files {
		if tf := pass.Fset.File(f.Pos()); tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue // tests own their run's lifetime
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Type, fd.Body, hasCtxParam(pass, fd.Type))
			}
		}
	}
	return nil
}

// checkFunc walks one function body. hasCtx reports whether this
// function or any enclosing one receives a context.Context; nested
// literals are walked with the union, since a literal can close over
// its parent's ctx.
func checkFunc(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, n.Type, n.Body, hasCtx || hasCtxParam(pass, n.Type))
			return false
		case *ast.CallExpr:
			f := lintutil.FuncObj(pass.TypesInfo, n)
			if f == nil {
				return true
			}
			if f.Pkg() != nil && f.Pkg().Path() == "context" && (f.Name() == "Background" || f.Name() == "TODO") {
				if hasCtx {
					pass.Reportf(n.Pos(), "context.%s() inside a function that already receives a context.Context: propagate the caller's ctx instead of detaching this call tree from cancellation", f.Name())
				} else {
					pass.Reportf(n.Pos(), "context.%s() below the API layer detaches this call tree from cancellation (client disconnects, deadlines, aborts); accept and propagate a context.Context instead", f.Name())
				}
			}
			if f.Name() == "runTasks" && f.Pkg() != nil && f.Pkg().Name() == "mr" && !hasCtx {
				pass.Reportf(n.Pos(), "calls runTasks but takes no context.Context: the pool's bounded-cancellation guarantee needs the caller's context threaded through every spawning layer")
			}
		}
		return true
	})
}

// hasCtxParam reports whether ftype declares a parameter of type
// context.Context.
func hasCtxParam(pass *analysis.Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && lintutil.NamedType(t, "context", "Context") {
			return true
		}
	}
	return false
}
