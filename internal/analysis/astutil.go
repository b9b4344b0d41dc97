package analysis

import (
	"go/ast"
	"strings"
)

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
// itself (exempt from the checks that police its callers, and the home of
// the vocabulary they police).
func isParallelPkg(importPath string) bool {
	return strings.HasSuffix(importPath, "/internal/parallel")
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

// regionParallelFuncs are package-level functions of internal/parallel that
// schedule their closure arguments onto the workers of the engine they take.
var regionParallelFuncs = map[string]bool{
	"ReduceWith": true, "Drain": true,
}

// isParallelRegionCall reports whether call hands work to pool workers,
// classifying the callee by its resolved package and receiver.
func isParallelRegionCall(f *File, call *ast.CallExpr) bool {
	fn := typedCallee(f, call)
	return fn != nil && typedRegionFunc(fn)
}

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
// *parallel.Engine.
func isEnginePtrType(f *File, t ast.Expr) bool {
	tv, ok := f.Info.Types[t]
	return ok && isEngineType(tv.Type)
}
