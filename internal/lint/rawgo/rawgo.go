// Package rawgo flags raw `go` statements in the engine package.
//
// All engine concurrency must flow through the work-stealing taskPool
// (internal/mr/pool.go): the pool's quiescence detection counts
// spawned tasks, and its abort path re-raises the first task panic on
// the Run caller. A raw goroutine is invisible to both —
// work it performs can outlive the run (racing the next job's reuse of
// shared buffers) and a panic in it crashes the process instead of
// surfacing as an error. The two go statements that *implement* the
// pool (runTasks's worker loop and its cancellation watcher) carry
// //lint:ignore directives.
//
// The check applies to non-test files of packages named "mr"; tests
// exercising the pool from outside may use goroutines freely.
package rawgo

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "rawgo",
	Doc:  "flags raw go statements in the engine package: concurrency must flow through taskPool so quiescence and panic propagation hold",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "mr" {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.File(f.Pos()).Name()
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw goroutine in the engine package: schedule work through taskPool.spawn so quiescence detection and panic propagation cover it (sanctioned primitives carry //lint:ignore rawgo)")
			}
			return true
		})
	}
	return nil
}
