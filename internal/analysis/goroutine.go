package analysis

import "go/ast"

func init() {
	Register(&Check{
		Name: "no-naked-goroutine",
		Doc: "go statements are forbidden outside internal/parallel; " +
			"all concurrency flows through the pool",
		Run: runNoNakedGoroutine,
	})
}

// runNoNakedGoroutine flags every go statement outside the concurrency
// runtime. Kernels and commands schedule work through the engine
// (Engine.For / Engine.ForN / parallel.Drain), which keeps the worker budget, cancellation,
// and per-worker scratch arenas coherent; a naked goroutine escapes all
// three. Test files are exempt — tests legitimately spin up goroutines to
// exercise concurrency.
func runNoNakedGoroutine(p *Pass) {
	if isParallelPkg(p.Pkg.Path) {
		return
	}
	p.walkFiles(func(f *File) {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "naked goroutine; route concurrency through the engine's pool (Engine.For / Engine.ForN / parallel.Drain)")
			}
			return true
		})
	})
}
