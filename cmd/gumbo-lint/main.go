// Command gumbo-lint runs the project's analyzer suite — the static
// checks that enforce the engine's ownership, determinism and
// scheduling contracts (see docs/INVARIANTS.md for the catalogue and
// internal/lint for the analyzers).
//
//	go run ./cmd/gumbo-lint ./...
//	go run ./cmd/gumbo-lint -list
//
// loads the named packages (test files included) and reports every
// finding as file:line:col: [analyzer] message, exiting 1 when
// anything is found and 0 on a clean tree.
//
// Findings may be suppressed line-by-line with
// //lint:ignore <analyzer> <reason>; a directive without a reason is
// itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gumbo-lint [-list] <packages>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := load.Load(cwd, args...)
	if err != nil {
		fatal(err)
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(lint.Analyzers(), pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.ReportFiles)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", relPosition(cwd, pkg, d), d.Analyzer.Name, d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "gumbo-lint: %d finding(s)\n", found)
		os.Exit(1)
	}
}

// relPosition renders a diagnostic position with the filename relative
// to dir when possible, keeping output stable across checkouts.
func relPosition(dir string, pkg *load.Package, d analysis.Diagnostic) string {
	pos := pkg.Fset.Position(d.Pos)
	if rel, ok := strings.CutPrefix(pos.Filename, dir+string(os.PathSeparator)); ok {
		pos.Filename = rel
	}
	return pos.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gumbo-lint:", err)
	os.Exit(2)
}
