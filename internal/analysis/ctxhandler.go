package analysis

import (
	"go/ast"
	"strings"
)

func init() {
	Register(&Check{
		Name: "ctx-first-handler",
		Doc: "serving-layer code must thread the request context; " +
			"context.Background()/TODO() are forbidden outside func main",
		Run: runCtxFirstHandler,
	})
}

// servingPkgSuffixes are the serving-layer packages the check applies to:
// everything in them sits on a request path where a fresh root context
// would detach kernels from the caller's deadline and cancellation.
var servingPkgSuffixes = []string{
	"internal/server",
	"cmd/nwhyd",
}

func isServingPkg(importPath string) bool {
	for _, s := range servingPkgSuffixes {
		if strings.HasSuffix(importPath, s) {
			return true
		}
	}
	return false
}

// runCtxFirstHandler flags context.Background() and context.TODO() calls in
// serving-layer packages. A handler that mints its own root context breaks
// the chain from the client's request to the kernels: admission waits stop
// honoring caller cancellation, and an abandoned query keeps computing.
// The one legitimate root is the process's own, so func main of the daemon
// is exempt (that is where the signal context is born); test files are
// exempt as always.
func runCtxFirstHandler(p *Pass) {
	if !isServingPkg(p.Pkg.Path) {
		return
	}
	p.walkFiles(func(f *File) {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "main" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := typedCallee(f, call); fn != nil && funcPkgPath(fn) == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					p.Reportf(call.Pos(),
						"context.%s() on a request path; thread the caller's ctx instead",
						fn.Name())
				}
				return true
			})
		}
	})
}
