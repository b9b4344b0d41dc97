package analysis

import (
	"go/ast"
	"strings"
)

// parallelPkg is the import path of the concurrency runtime every invariant
// is phrased against.
const parallelPkg = "nwhy/internal/parallel"

// kernelPkgSuffixes are the algorithm-layer packages whose exported entry
// points are "kernels" in the sense of the engine invariants.
var kernelPkgSuffixes = []string{
	"internal/graph",
	"internal/core",
	"internal/slinegraph",
	"internal/smetrics",
	"internal/hygra",
	"internal/mmio",
}

// isKernelPkg reports whether importPath is one of the algorithm-layer
// packages the kernel checks apply to.
func isKernelPkg(importPath string) bool {
	for _, s := range kernelPkgSuffixes {
		if strings.HasSuffix(importPath, s) {
			return true
		}
	}
	return false
}

// isParallelPkg reports whether importPath is the concurrency runtime
// itself (exempt from the checks that police its callers).
func isParallelPkg(importPath string) bool {
	return strings.HasSuffix(importPath, "internal/parallel")
}

// pathOf renders a dotted identifier chain ("eng", "r.Level", "s.dist") or
// "" for expressions that are not plain selector chains. Parenthesized
// expressions are looked through.
func pathOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return pathOf(e.X)
	case *ast.SelectorExpr:
		base := pathOf(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// selectorCall splits a call into the rendered path of its callee's base
// and the selected name: parallel.MinU32(&x, v) → ("parallel", "MinU32"),
// eng.ForN(n, body) → ("eng", "ForN"). Plain ident calls return ("", name).
func selectorCall(call *ast.CallExpr) (base, name string) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return "", fn.Name
	case *ast.SelectorExpr:
		return pathOf(fn.X), fn.Sel.Name
	case *ast.IndexExpr: // generic instantiation, e.g. ReduceWith[float64]
		inner := &ast.CallExpr{Fun: fn.X, Args: call.Args}
		return selectorCall(inner)
	case *ast.IndexListExpr:
		inner := &ast.CallExpr{Fun: fn.X, Args: call.Args}
		return selectorCall(inner)
	}
	return "", ""
}

// regionMethods are the method names that schedule their function-literal
// arguments onto pool workers. With type information the receiver is
// verified (real method-set resolution on *parallel.Engine / frontier
// State); this name table is the fallback for unresolved calls, sound in
// this module because the names are only used by the parallel runtime, the
// frontier substrate, and their adopters.
var regionMethods = map[string]bool{
	"For": true, "ForN": true, "ForEach": true,
	"ForCyclic": true, "ForCyclicNeighbor": true,
	"Invoke": true, "Go": true, "EdgeMap": true,
}

// regionParallelFuncs are package-level functions of internal/parallel that
// schedule their closure arguments onto pool workers.
var regionParallelFuncs = map[string]bool{
	"For": true, "ForEach": true, "Reduce": true, "ReduceWith": true,
	"Drain": true,
}

// isParallelRegionCall reports whether call hands work to pool workers, and
// returns the function-literal arguments that will run there. Resolution is
// typed-first: a resolved callee is classified by its actual package and
// receiver; only unresolved calls fall back to the name tables.
func isParallelRegionCall(f *File, call *ast.CallExpr) (closures []*ast.FuncLit, ok bool) {
	isRegion := false
	if fn := typedCallee(f, call); fn != nil {
		isRegion = typedRegionFunc(fn)
	} else {
		base, name := selectorCall(call)
		if base != "" {
			if f.Imports[base] == parallelPkg || (f.Imports[base] == "" && base == "parallel") {
				// Package-level parallel.For / parallel.Reduce / parallel.Drain.
				isRegion = regionParallelFuncs[name]
			} else if f.Imports[base] == "" {
				// Method call on a value (engine, pool, frontier state, …).
				isRegion = regionMethods[name]
			}
		}
	}
	if !isRegion {
		return nil, false
	}
	for _, arg := range call.Args {
		if fl, isLit := ast.Unparen(arg).(*ast.FuncLit); isLit {
			closures = append(closures, fl)
		}
	}
	return closures, true
}

// parallelAtomicHelpers are internal/parallel's atomic vocabulary; all take
// the shared address first, like sync/atomic.
var parallelAtomicHelpers = map[string]bool{
	"MinU32": true, "MinU64": true, "CASU32": true,
	"LoadU32": true, "StoreU32": true, "AddI64": true,
}

// isAtomicCall reports whether call is an atomic access through either
// vocabulary — sync/atomic or internal/parallel's helpers. Typed-first,
// with the import-table name match as fallback.
func isAtomicCall(f *File, call *ast.CallExpr) bool {
	if fn := typedCallee(f, call); fn != nil {
		pkg := funcPkgPath(fn)
		if pkg == "sync/atomic" && recvTypeName(fn) == "" {
			return true
		}
		return isParallelModulePkg(pkg) && parallelAtomicHelpers[fn.Name()]
	}
	base, name := selectorCall(call)
	if base == "" {
		return false
	}
	switch f.Imports[base] {
	case "sync/atomic":
		return strings.HasPrefix(name, "Load") || strings.HasPrefix(name, "Store") ||
			strings.HasPrefix(name, "Add") || strings.HasPrefix(name, "Swap") ||
			strings.HasPrefix(name, "CompareAndSwap")
	case parallelPkg:
		return parallelAtomicHelpers[name]
	}
	return false
}

// cancellationNames are the method names whose call counts as observing
// cancellation when the callee cannot be resolved: Engine.Err /
// Engine.Cancelled / context.Context.Err.
var cancellationNames = map[string]bool{"Err": true, "Cancelled": true}

// containsCancellationCheck reports whether any node under root calls a
// cancellation observer.
func containsCancellationCheck(f *File, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCancellationObserver(f, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isEnginePtrType reports whether the type expression t is
// *parallel.Engine: by its checked type when available, by the file's
// import table otherwise.
func isEnginePtrType(f *File, t ast.Expr) bool {
	if f.Info != nil {
		if tv, ok := f.Info.Types[t]; ok && tv.Type != nil {
			return isEngineType(tv.Type)
		}
	}
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Engine" {
		return false
	}
	base := pathOf(sel.X)
	return base != "" && f.Imports[base] == parallelPkg
}
