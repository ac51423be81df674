package mr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The engine's source rules: the three contract violations no run can
// show, checked on the source with go/parser alone (docs/INVARIANTS.md).

// sourceFile is one parsed non-test Go file, its text and its directory.
type sourceFile struct {
	ast *ast.File
	src []byte
	dir string
}

// parseSources parses the non-test Go files of each directory.
func parseSources(t *testing.T, fset *token.FileSet, dirs ...string) []sourceFile {
	t.Helper()
	var files []sourceFile
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, sourceFile{f, src, dir})
		}
	}
	if len(files) == 0 {
		t.Fatal("no source files found")
	}
	return files
}

// TestNoSpawnUnderLock: no function of this package's non-test files
// calls spawn while it holds a mutex it locked earlier in its own body.
// A task stolen the moment it is spawned contends on that lock and
// serializes the pool behind the spawner, yet nothing deadlocks and no
// output or statistic changes. (A task that blocks on pool work does
// deadlock, at width 1, and the engine suites catch it there.)
//
// Lock and unlock are paired by the receiver's source text in source
// order, which is how the engine writes its critical sections: a
// deferred unlock holds the lock to the end of the body, and a function
// literal is checked as a body of its own.
func TestNoSpawnUnderLock(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseSources(t, fset, ".") {
		text := func(e ast.Expr) string {
			return string(f.src[fset.Position(e.Pos()).Offset:fset.Position(e.End()).Offset])
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			var held []string
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch recv := text(sel.X); sel.Sel.Name {
					case "Lock", "RLock":
						held = append(held, recv)
					case "Unlock", "RUnlock":
						for i, h := range held {
							if h == recv {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					case "spawn":
						if len(held) > 0 {
							t.Errorf("%s: spawn while holding %s: release the lock before spawning", fset.Position(n.Pos()), held[0])
						}
					}
				}
				return true
			})
			return true
		})
	}
}

// mapRangeAllowed names each function of the engine and plan packages
// that ranges over a map, and why the order cannot reach an output, a
// statistic or a plan.
var mapRangeAllowed = map[string]string{
	"outputOrder":     "collects the names, then sorts them",
	"ReadSets":        "records each output's producer job",
	"Validate":        "whether a program is valid does not depend on the order",
	"cleanup":         "closes and removes every spill file",
	"SubsetSums":      "builds a set",
	"DetectHeavyKeys": "builds a set",
	"Bytes":           "sums integers",
}

// TestNoMapRange: no function of internal/mr, internal/core,
// internal/relation or internal/baselines ranges over a map, except
// those in mapRangeAllowed. The determinism suites catch map order that
// changes a run's bits, but not all of it does: the engine's MB figures
// are byte counts over 2^20, so a map-order fold of them is exact in any
// order until a term stops being one.
//
// Without a type checker a map is known by its declaration in these
// packages: a variable or parameter of the same function declared with
// a map type or assigned make(map...) or a map literal, or a struct
// field declared with a map type, in the same package if that package
// declares a field of the name, else in any.
func TestNoMapRange(t *testing.T) {
	fset := token.NewFileSet()
	files := parseSources(t, fset, ".", "../core", "../relation", "../baselines")
	isMap := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.MapType:
			return true
		case *ast.CompositeLit:
			_, ok := e.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
				_, ok := e.Args[0].(*ast.MapType)
				return ok
			}
		}
		return false
	}
	fields := map[string]bool{} // "dir.name" and "name" → declared as a map
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						for _, k := range []string{f.dir + "." + name.Name, name.Name} {
							fields[k] = fields[k] || isMap(fl.Type)
						}
					}
				}
			}
			return true
		})
	}
	used := map[string]bool{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			vars := map[string]bool{}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, name := range n.Names {
						vars[name.Name] = vars[name.Name] || isMap(n.Type)
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						vars[name.Name] = vars[name.Name] || n.Type != nil && isMap(n.Type) || i < len(n.Values) && isMap(n.Values[i])
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
							vars[id.Name] = vars[id.Name] || isMap(n.Rhs[i])
						}
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				isMapRange := false
				switch x := r.X.(type) {
				case *ast.Ident:
					isMapRange = vars[x.Name]
				case *ast.SelectorExpr:
					m, declared := fields[f.dir+"."+x.Sel.Name]
					isMapRange = m || !declared && fields[x.Sel.Name]
				}
				if isMapRange {
					used[fn.Name.Name] = true
					if mapRangeAllowed[fn.Name.Name] == "" {
						t.Errorf("%s: %s ranges over a map: collect and sort the keys, then range over the slice", fset.Position(r.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	for name := range mapRangeAllowed {
		if !used[name] {
			t.Errorf("mapRangeAllowed lists %s, which ranges over no map: drop the entry", name)
		}
	}
}

// clockSite is the one function of the package's non-test files that
// reads the clock: the task record's run, which times every granted
// task.
const clockSite = "*Progress.run"

// TestOneTimingSource: no non-test file of this package calls time.Now
// or time.Since outside clockSite. Every measured second is a span of
// the task record, and the folds over it (JobTiming, CriticalPath) agree
// because they sum the same spans. A second clock disagrees with them —
// one inside a task misses the stage-join work the task runs — yet no
// output or statistic shows it.
func TestOneTimingSource(t *testing.T) {
	fset := token.NewFileSet()
	reads := 0
	for _, f := range parseSources(t, fset, ".") {
		for _, d := range f.ast.Decls {
			site := ""
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				site = string(f.src[fset.Position(recv.Pos()).Offset:fset.Position(recv.End()).Offset]) + "." + fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "time" {
					return true
				}
				if site == clockSite {
					reads++
				} else {
					t.Errorf("%s: time.%s outside %s: time the work as a pool task, through the task record", fset.Position(sel.Pos()), sel.Sel.Name, clockSite)
				}
				return true
			})
		}
	}
	if reads == 0 {
		t.Errorf("%s reads no clock: update clockSite", clockSite)
	}
}
