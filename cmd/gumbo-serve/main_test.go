package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// TestCheckSpillDir: the start-up probe accepts a writable directory
// (leaving nothing behind) and rejects a missing one and a plain file.
func TestCheckSpillDir(t *testing.T) {
	dir := t.TempDir()
	if err := checkSpillDir(dir); err != nil {
		t.Errorf("writable directory rejected: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("probe left %d files behind", len(left))
	}
	if err := checkSpillDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing directory accepted")
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSpillDir(file); err == nil {
		t.Error("plain file accepted as a spill directory")
	}
}

// TestCheckSkewSplit: the start-up check accepts every finite ratio —
// off, on, and the negatives the engine reads as off — and rejects what
// flag.Float64 parses from "NaN", "Inf" and "-Inf".
func TestCheckSkewSplit(t *testing.T) {
	for _, ratio := range []float64{0, 1.5, 0.5, -1} {
		if err := checkSkewSplit(ratio); err != nil {
			t.Errorf("ratio %v rejected: %v", ratio, err)
		}
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkSkewSplit(ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
}

// TestFlagTableMatchesDocs: the flags main.go defines — the first string
// argument of every flag.* call — are exactly the `-name` rows of
// docs/SERVER.md's flag table.
func TestFlagTableMatchesDocs(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var defined []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			defined = append(defined, name)
		}
		return true
	})
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVER.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The flag table runs from its header to the first blank line; later
	// tables in the file name some flags again.
	_, table, ok := bytes.Cut(doc, []byte("| Flag | Default | Meaning |"))
	if !ok {
		t.Fatal("docs/SERVER.md has no flag table")
	}
	table, _, _ = bytes.Cut(table, []byte("\n\n"))
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllSubmatch(table, -1) {
		documented = append(documented, string(m[1]))
	}
	slices.Sort(defined)
	slices.Sort(documented)
	if len(defined) == 0 || !slices.Equal(defined, documented) {
		t.Errorf("main.go defines flags %v; docs/SERVER.md's table lists %v", defined, documented)
	}
}
