package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// typedCallee resolves the *types.Func a call statically dispatches to:
// package functions, methods (interface methods resolve to the interface's
// declaration), and generic instantiations (which resolve to their origin).
// nil for func-value calls, conversions and builtins.
func typedCallee(f *File, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch fe := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(fe.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(fe.X)
			continue
		}
		break
	}
	var obj types.Object
	switch fe := fun.(type) {
	case *ast.Ident:
		obj = f.Info.Uses[fe]
	case *ast.SelectorExpr:
		obj = f.Info.Uses[fe.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcPkgPath is the import path of the package a function belongs to
// ("" for builtins and error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName is the named type a method's receiver resolves to, pointers
// stripped ("" for plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func isFrontierPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/frontier")
}

// engineRegionMethods are the *parallel.Engine methods that schedule their
// closure arguments onto pool workers.
var engineRegionMethods = map[string]bool{
	"For": true, "ForN": true, "ForEach": true,
}

// typedRegionFunc classifies a resolved callee as a parallel-region entry:
// an Engine region method, frontier State.EdgeMap, or an engine-taking
// package-level reduction or queue drain.
func typedRegionFunc(fn *types.Func) bool {
	pkg := funcPkgPath(fn)
	recv := recvTypeName(fn)
	switch {
	case isParallelPkg(pkg) && recv == "Engine" && engineRegionMethods[fn.Name()]:
		return true
	case isParallelPkg(pkg) && recv == "" && regionParallelFuncs[fn.Name()]:
		return true
	case isFrontierPkg(pkg) && recv == "State" && fn.Name() == "EdgeMap":
		return true
	}
	return false
}

// isCancellationObserver reports whether call observes cancellation:
// Engine.Err / Engine.Cancelled / context.Context.Err (or Done), verified
// by receiver.
func isCancellationObserver(f *File, call *ast.CallExpr) bool {
	fn := typedCallee(f, call)
	if fn == nil {
		return false
	}
	pkg, recv, name := funcPkgPath(fn), recvTypeName(fn), fn.Name()
	switch {
	case isParallelPkg(pkg) && recv == "Engine" && (name == "Err" || name == "Cancelled"):
		return true
	case pkg == "context" && recv == "Context" && (name == "Err" || name == "Done"):
		return true
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isEngineType reports whether t is *parallel.Engine.
func isEngineType(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		isParallelPkg(n.Obj().Pkg().Path()) && n.Obj().Name() == "Engine"
}

// identObj resolves an identifier's object, use or definition.
func identObj(f *File, id *ast.Ident) types.Object {
	if obj := f.Info.Uses[id]; obj != nil {
		return obj
	}
	return f.Info.Defs[id]
}

// chainObjects resolves a selector chain (x, x.f, x.f.g — parens looked
// through) to its constituent objects, outermost first. Package qualifiers
// are dropped (the package-level object is already unique). nil when e is
// not such a chain.
func chainObjects(f *File, e ast.Expr) []types.Object {
	var chain []types.Object
	var walk func(e ast.Expr) bool
	walk = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := identObj(f, e)
			if obj == nil {
				return false
			}
			if _, isPkg := obj.(*types.PkgName); !isPkg {
				chain = append(chain, obj)
			}
			return true
		case *ast.SelectorExpr:
			if !walk(e.X) {
				return false
			}
			obj := f.Info.Uses[e.Sel]
			if obj == nil {
				return false
			}
			chain = append(chain, obj)
			return true
		}
		return false
	}
	if !walk(e) || len(chain) == 0 {
		return nil
	}
	return chain
}

// memKey is a comparable identity for a selector chain — its objects'
// pointers — plus the rendered path for messages; ("", "") when e is not
// a resolvable chain.
func memKey(f *File, e ast.Expr) (key, display string) {
	chain := chainObjects(f, e)
	if chain == nil {
		return "", ""
	}
	var b strings.Builder
	for _, o := range chain {
		fmt.Fprintf(&b, "%p.", o)
	}
	return b.String(), pathOf(e)
}
