// Package lintutil holds the type-matching helpers the gumbo-lint
// analyzers share.
//
// Analyzers match engine types by package *name* plus type name
// ("mr".Emitter, "relation".Relation) rather than full import path, so
// the same analyzer runs unchanged against the real repro/internal
// packages and against the small stub packages in
// internal/lint/testdata. Within this repository the names are
// unambiguous; the testdata suites pin exactly what each matcher
// accepts.
package lintutil

import (
	"go/ast"
	"go/types"
)

// NamedType reports whether t (after pointer stripping when ptr) is a
// defined type typeName declared in a package named pkgName.
func NamedType(t types.Type, pkgName, typeName string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// PtrToNamed reports whether t is *P for a defined type P named
// typeName in a package named pkgName.
func PtrToNamed(t types.Type, pkgName, typeName string) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	return ok && NamedType(ptr.Elem(), pkgName, typeName)
}

// IsByteSlice reports whether t's underlying type is []byte.
func IsByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// FuncObj resolves the called function or method object of a call
// expression, or nil (calls through func values, conversions).
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsMethodOn reports whether f is a method named methodName whose
// receiver (after pointer stripping) is defined type typeName in a
// package named pkgName.
func IsMethodOn(f *types.Func, pkgName, typeName, methodName string) bool {
	if f == nil || f.Name() != methodName {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return NamedType(rt, pkgName, typeName)
}

// FreeObjects collects the objects used inside node that are declared
// outside it: the closure's captures plus package-level references.
// keep filters which objects are recorded.
func FreeObjects(info *types.Info, node ast.Node, keep func(types.Object) bool) map[types.Object][]*ast.Ident {
	free := make(map[types.Object][]*ast.Ident)
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !keep(obj) {
			return true
		}
		if obj.Pos().IsValid() && node.Pos() <= obj.Pos() && obj.Pos() < node.End() {
			return true // declared inside node
		}
		free[obj] = append(free[obj], id)
		return true
	})
	return free
}
