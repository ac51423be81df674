// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, carrying exactly the subset
// the gumbo-lint suite needs: an Analyzer is a named check with a Run
// function, a Pass hands it one type-checked package, and diagnostics
// are plain positioned messages. The x/tools module is deliberately not
// a dependency — the repo builds offline from the standard library
// alone — but the shapes mirror it closely enough that an analyzer
// written here ports to the real framework by changing one import.
//
// Beyond the x/tools subset, the driver honors suppression directives:
// a comment of the form
//
//	//lint:ignore <analyzer-name> <reason>
//
// on the flagged line, or alone on the line immediately above it,
// silences that analyzer there (see ignore.go). Every suppression must
// carry a reason; bare directives are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. Run inspects the Pass's package and
// reports findings through Pass.Report; the returned error aborts the
// whole lint run (reserved for internal failures, not findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary,
	// the rest explains the contract being enforced.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work. The same package is
// handed to every analyzer; passes share no state.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ReportFiles, when non-nil, restricts reporting to the named
	// files (base-resolved absolute paths): the loader uses it so a
	// test-augmented package variant reports only on its _test.go
	// files, not a second time on the files the plain variant already
	// covered.
	ReportFiles map[string]bool

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Report records a finding. Findings outside the pass's ReportFiles
// restriction (when set) are dropped.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer
	if p.ReportFiles != nil {
		if file := p.Fset.File(d.Pos); file == nil || !p.ReportFiles[file.Name()] {
			return
		}
	}
	p.report(d)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run applies every analyzer to the package described by pass-level
// inputs and returns the surviving diagnostics (suppressions applied)
// in source order. It is the single driver used by the command and the
// test harness.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, reportFiles map[string]bool) ([]Diagnostic, error) {
	ignores := collectIgnores(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        fset,
			Files:       files,
			Pkg:         pkg,
			TypesInfo:   info,
			ReportFiles: reportFiles,
			report: func(d Diagnostic) {
				if !ignores.suppresses(fset, d) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	diags = append(diags, ignores.malformed(reportFiles)...)
	sortDiagnostics(fset, diags)
	return diags, nil
}

// sortDiagnostics orders diags by file, line, column, then analyzer
// name, so output is deterministic regardless of analyzer order.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	positionLess := func(a, b Diagnostic) bool {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Line != pb.Line {
			return pa.Line < pb.Line
		}
		if pa.Column != pb.Column {
			return pa.Column < pb.Column
		}
		return a.Analyzer.Name < b.Analyzer.Name
	}
	// Insertion sort keeps this dependency-free; diagnostic counts are
	// tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && positionLess(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}
