package analysis

import "go/ast"

func init() {
	Register(&Check{
		Name: "ctx-at-rounds",
		Doc: "multi-round driver loops in kernels must observe cancellation " +
			"(eng.Err / eng.Cancelled / ctx.Err) every round",
		Run: runCtxAtRounds,
	})
}

// runCtxAtRounds enforces the grain-boundary cancellation contract at the
// next level up: a loop that repeatedly launches parallel work (a BFS
// round loop, a PageRank iteration loop, an ensemble sweep) must check for
// cancellation between rounds, otherwise a cancelled engine merely stops
// scheduling grains while the driver keeps spinning rounds forever.
//
// "Launches parallel work" resolves through the module call graph: a loop
// is parallel if it contains a region call or a call — cross-package and
// method calls included — to a function that transitively schedules on
// pool workers. The cancellation observer is Engine.Err/Cancelled or
// context.Context.Err/Done, verified by receiver.
func runCtxAtRounds(p *Pass) {
	if !isKernelPkg(p.Pkg.Path) {
		return
	}
	cg := p.Mod.CallGraph()
	p.funcDecls(func(f *File, d *ast.FuncDecl) {
		ast.Inspect(d, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var cond ast.Expr
			switch loop := n.(type) {
			case *ast.ForStmt:
				body, cond = loop.Body, loop.Cond
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !launchesParallelWork(f, cg, body) {
				return true
			}
			if containsCancellationCheck(f, body) || (cond != nil && containsCancellationCheck(f, cond)) {
				return true
			}
			p.Reportf(n.Pos(), "round loop launches parallel work but never observes cancellation; check eng.Err()/eng.Cancelled() each round")
			return true
		})
	})
}

// launchesParallelWork reports whether root contains a call to a region
// entry point or to a function the call graph marks parallel.
func launchesParallelWork(f *File, cg *CallGraph, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && cg.LaunchesParallel(typedCallee(f, call)) {
			found = true
		}
		return !found
	})
	return found
}
