// Package keyretain flags reducer callbacks that retain engine-owned
// shuffle bytes — the key, a payload, or the message view that hands
// payloads out — beyond the callback.
//
// Contract (see docs/INVARIANTS.md and the mr.Reducer godoc): the key and payload bytes live in shuffle buffers the engine
// reuses or releases when the callback returns, and the *mr.Group view
// is re-pointed at the next key group, so none of them may be stored
// past the callback's return without an explicit copy — string(key),
// append([]byte(nil), key...), bytes.Clone — while decoded values
// (core.DecodeAssert(p), a tuple decoded with a nil destination) are
// copies and may be retained freely.
//
// The analyzer identifies callbacks by signature: any function or
// literal with parameters ([]byte, *mr.Group, *mr.Output) is
// reducer-shaped. Within a callback it taints the owned parameters, every []byte a method of the
// tainted view returns, and every local alias, then reports stores that
// outlive the call: assignment to a captured, package-level,
// receiver-field or otherwise non-local location, append of an
// uncopied alias into a non-local slice, goroutine capture, and channel
// sends.
package keyretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "keyretain",
	Doc:  "flags reducer callbacks that retain the engine-owned key, payload bytes or message view beyond the callback",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if owned := ownedParams(pass, ftype); len(owned) > 0 {
				checkCallback(pass, body, owned)
			}
			return true
		})
	}
	return nil
}

// ownedParams returns the engine-owned parameters of a reducer-shaped
// function type, {key, msgs}, and nil for everything else. The map
// value names the parameter in diagnostics.
func ownedParams(pass *analysis.Pass, ftype *ast.FuncType) map[types.Object]string {
	var params []*ast.Ident
	var ptypes []types.Type
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil {
			return nil
		}
		if len(field.Names) == 0 {
			params = append(params, nil)
			ptypes = append(ptypes, t)
		}
		for _, name := range field.Names {
			params = append(params, name)
			ptypes = append(ptypes, t)
		}
	}
	reducerShaped := len(ptypes) == 3 &&
		lintutil.IsByteSlice(ptypes[0]) &&
		lintutil.PtrToNamed(ptypes[1], "mr", "Group") &&
		lintutil.PtrToNamed(ptypes[2], "mr", "Output")
	if !reducerShaped {
		return nil
	}
	owned := make(map[types.Object]string)
	add := func(id *ast.Ident, label string) {
		if id == nil || id.Name == "_" {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			owned[obj] = label
		}
	}
	add(params[0], "key")
	add(params[1], "msgs")
	return owned
}

// checker tracks the taint state for one callback body.
type checker struct {
	pass  *analysis.Pass
	body  *ast.BlockStmt
	taint map[types.Object]string // tainted object → owned-param label it aliases
}

func checkCallback(pass *analysis.Pass, body *ast.BlockStmt, owned map[types.Object]string) {
	c := &checker{pass: pass, body: body, taint: make(map[types.Object]string)}
	for obj, label := range owned {
		c.taint[obj] = label
	}
	// Pass 1 propagates taint through local aliases (run twice so a
	// loop-carried alias assigned below its first use is still seen);
	// pass 2 reports escaping stores.
	c.scan(false)
	c.scan(false)
	c.scan(true)
}

func (c *checker) scan(report bool) {
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			// Nested literals run synchronously unless launched by a
			// go statement (handled at the GoStmt below); don't
			// descend — their own reducer shapes are matched
			// independently by run.
			return false
		case *ast.AssignStmt:
			c.assign(stmt, report)
		case *ast.GoStmt:
			if report {
				c.goStmt(stmt)
			}
			return false
		case *ast.SendStmt:
			if label := c.taintLabel(stmt.Value); report && label != "" {
				c.escape(stmt.Value.Pos(), label, "sent on a channel")
			}
		case *ast.ReturnStmt:
			for _, r := range stmt.Results {
				if label := c.taintLabel(r); report && label != "" {
					c.escape(r.Pos(), label, "returned")
				}
			}
		}
		return true
	})
}

// assign handles one assignment statement: propagating taint into
// local variables and reporting stores into locations that outlive
// the callback.
func (c *checker) assign(stmt *ast.AssignStmt, report bool) {
	// tag, p := msgs.At(i): every []byte a method of the tainted view
	// returns points into the shuffle buffer. Other multi-value results
	// are never tainted.
	viewCall := len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 && c.viewCall(stmt.Rhs[0])
	if len(stmt.Lhs) != len(stmt.Rhs) && !viewCall {
		return
	}
	for i, lhs := range stmt.Lhs {
		label := ""
		if !viewCall {
			label = c.taintLabel(stmt.Rhs[i])
		} else if t := c.pass.TypesInfo.TypeOf(lhs); t != nil && lintutil.IsByteSlice(t) {
			label = "payload"
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if c.localVar(obj) || c.taint[obj] != "" {
				// Local (or re-assigned owned param): track.
				if label != "" {
					c.taint[obj] = label
				} else {
					delete(c.taint, obj)
				}
				continue
			}
			if label != "" && report {
				c.escape(stmt.Pos(), label, "assigned to a variable that outlives the callback")
			}
			continue
		}
		if label == "" {
			continue
		}
		if report && !c.localStore(lhs) {
			c.escape(stmt.Pos(), label, "stored in a location that outlives the callback")
		}
	}
}

// viewCall reports whether e calls a method on a tainted message view.
func (c *checker) viewCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && c.taintLabel(sel.X) == "msgs"
}

// goStmt reports owned slices crossing into a goroutine, which
// outlives (or races with) the callback's buffer reuse.
func (c *checker) goStmt(stmt *ast.GoStmt) {
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		free := lintutil.FreeObjects(c.pass.TypesInfo, lit, func(o types.Object) bool {
			return c.taint[o] != ""
		})
		for obj, ids := range free {
			c.escape(ids[0].Pos(), c.taint[obj], "captured by a goroutine")
		}
	}
	for _, arg := range stmt.Call.Args {
		if label := c.taintLabel(arg); label != "" {
			c.escape(arg.Pos(), label, "passed to a goroutine")
		}
	}
}

// taintLabel reports which owned parameter (if any) expression e still
// aliases. Copies break the alias: string conversions, element reads,
// and spread-appends produce fresh memory and return "".
func (c *checker) taintLabel(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			return c.taint[obj]
		}
	case *ast.SliceExpr:
		return c.taintLabel(e.X) // key[1:] still points into the arena
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return c.taintLabel(e.X)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if label := c.taintLabel(elt); label != "" {
				return label
			}
		}
	case *ast.CallExpr:
		// append(dst, alias) keeps the alias; append(dst, alias...)
		// copies the elements and is the sanctioned idiom.
		if b, ok := c.pass.TypesInfo.Uses[builtinIdent(e.Fun)].(*types.Builtin); ok && b.Name() == "append" {
			if !e.Ellipsis.IsValid() {
				for _, arg := range e.Args[1:] {
					if label := c.taintLabel(arg); label != "" {
						return label
					}
				}
			}
			// The backing array of dst may itself be tainted.
			if len(e.Args) > 0 {
				return c.taintLabel(e.Args[0])
			}
		}
	}
	return ""
}

// builtinIdent unwraps fun to an identifier for builtin resolution
// (nil-safe: Uses lookups on nil return nothing).
func builtinIdent(fun ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return id
}

// localStore reports whether lvalue lhs writes through a variable
// declared inside the callback body (so the store cannot outlive it at
// this analysis depth).
func (c *checker) localStore(lhs ast.Expr) bool {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = c.pass.TypesInfo.Defs[e]
			}
			return obj != nil && c.localVar(obj)
		default:
			return false
		}
	}
}

// localVar reports whether obj is declared inside the callback body —
// note a method receiver or captured variable is not, which is exactly
// what makes `r.last = key` the classic violation.
func (c *checker) localVar(obj types.Object) bool {
	return obj.Pos().IsValid() && c.body.Pos() <= obj.Pos() && obj.Pos() < c.body.End()
}

func (c *checker) escape(pos token.Pos, label, how string) {
	what := "the engine-owned " + label + " []byte"
	fix := "copy it first (string(" + label + ") or append([]byte(nil), " + label + "...))"
	if label == "msgs" {
		what = "the engine-owned msgs *Group view"
		fix = "decode what you need inside the callback; decoded values are copies"
	}
	c.pass.Reportf(pos, "%s %s: it points into shuffle buffers the engine reuses after the callback returns; %s", what, how, fix)
}
