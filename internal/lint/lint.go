// Package lint assembles the gumbo-lint analyzer suite: the seven
// project-specific static checks that machine-enforce the engine's
// documented ownership, determinism and scheduling contracts
// (docs/INVARIANTS.md maps each contract to its analyzer and fix
// recipe).
//
// The suite runs two ways, both over the same driver:
//
//	go run ./cmd/gumbo-lint ./...          # multichecker, CI gate
//	go test ./internal/lint/...            # analysistest suites
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/ctxpass"
	"repro/internal/lint/keyretain"
	"repro/internal/lint/mapiter"
	"repro/internal/lint/memcharge"
	"repro/internal/lint/rawgo"
	"repro/internal/lint/readset"
	"repro/internal/lint/taskblock"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpass.Analyzer,
		keyretain.Analyzer,
		mapiter.Analyzer,
		memcharge.Analyzer,
		rawgo.Analyzer,
		readset.Analyzer,
		taskblock.Analyzer,
	}
}
