package analysis

import (
	"go/ast"
	"go/types"
)

func init() {
	Register(&Check{
		Name: "ctx-propagation",
		Doc: "a received context.Context (or ctx-bound *parallel.Engine) must " +
			"reach every callee on serving and facade paths that accepts one",
		Run: runCtxPropagation,
	})
}

// runCtxPropagation closes the gap ctx-first-handler leaves open: banning
// context.Background() catches minted roots, but a handler that receives a
// perfectly good ctx and then calls a kernel with a fresh unbound engine —
// or a *Ctx facade method that builds one ctx-bound engine and launches a
// second kernel on g.engine() — drops the deadline silently and nothing
// -race can catch it.
//
// For every function in the serving packages and the facade that has a
// context.Context or *parallel.Engine parameter, the parameter seeds a
// taint set; assignments whose right-hand side uses a tainted value extend
// it (only ctx- and engine-typed bindings are tracked — deriving
// eng.WithContext(ctx) or context.WithTimeout(ctx, d) keeps the chain).
// Every statically resolved call is then required to receive a tainted
// value in each of its context.Context / *parallel.Engine parameter
// positions. WithEngine callees are exempt: rebinding a result handle to a
// fresh engine is exactly how ctx-bound construction hands back a handle
// that outlives the request deadline.
//
// Functions without a ctx or engine parameter are not analyzed — the
// non-Ctx convenience wrappers legitimately start from the shared engine.
func runCtxPropagation(p *Pass) {
	facade := p.Pkg.Path == p.Pkg.Module
	if !facade && !isServingPkg(p.Pkg.Path) {
		return
	}
	p.funcDecls(func(f *File, d *ast.FuncDecl) {
		tainted := ctxSeeds(f, d)
		if len(tainted) == 0 {
			return
		}
		seedClosureParams(f, d.Body, tainted)
		propagateCtxTaint(f, d, tainted)
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := typedCallee(f, call)
			if callee == nil || callee.Name() == "WithEngine" {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				kind := ""
				switch {
				case isContextType(params.At(i).Type()):
					kind = "context.Context"
				case isEngineType(params.At(i).Type()):
					kind = "engine"
				default:
					continue
				}
				if exprUsesTainted(f, call.Args[i], tainted) {
					continue
				}
				if kind == "engine" {
					p.Reportf(call.Args[i].Pos(),
						"%s runs on an engine not derived from the ctx %s received; thread the WithContext-bound engine (rebind result handles with WithEngine)",
						callee.Name(), d.Name.Name)
				} else {
					p.Reportf(call.Args[i].Pos(),
						"%s is called with a context not derived from the one %s received; thread the caller's ctx",
						callee.Name(), d.Name.Name)
				}
			}
			return true
		})
	})
}

// ctxSeeds collects d's context.Context and *parallel.Engine parameters.
func ctxSeeds(f *File, d *ast.FuncDecl) map[types.Object]bool {
	seeds := map[types.Object]bool{}
	if d.Type.Params == nil {
		return seeds
	}
	for _, field := range d.Type.Params.List {
		for _, name := range field.Names {
			obj := f.Info.Defs[name]
			if obj == nil {
				continue
			}
			if isContextType(obj.Type()) || isEngineType(obj.Type()) {
				seeds[obj] = true
			}
		}
	}
	return seeds
}

// seedClosureParams adds the ctx- and engine-typed parameters of nested
// function literals to the taint set. The serving wrapper pattern
//
//	s.do(ctx, "endpoint", func(ctx context.Context) error { … })
//
// shadows the received ctx with a closure parameter bound to a distinct
// object; the wrapper derives the value it passes from the tainted one, so
// the shadowing binding is tainted too. Only applied when the enclosing
// declaration itself has seeds — a function without a ctx parameter keeps
// its exemption even if a callback it declares takes one.
func seedClosureParams(f *File, root ast.Node, tainted map[types.Object]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || fl.Type.Params == nil {
			return true
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				obj := f.Info.Defs[name]
				if obj == nil {
					continue
				}
				if isContextType(obj.Type()) || isEngineType(obj.Type()) {
					tainted[obj] = true
				}
			}
		}
		return true
	})
}

// propagateCtxTaint extends the taint set to fixpoint: a ctx- or
// engine-typed binding whose initializer uses a tainted value becomes
// tainted itself (closures share the enclosing function's set — they
// capture the same objects).
func propagateCtxTaint(f *File, d *ast.FuncDecl, tainted map[types.Object]bool) {
	taintLHS := func(lhs ast.Expr, rhsTainted bool) bool {
		if !rhsTainted {
			return false
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := identObj(f, id)
		if obj == nil || tainted[obj] {
			return false
		}
		if !isContextType(obj.Type()) && !isEngineType(obj.Type()) {
			return false
		}
		tainted[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				rhsTainted := false
				for _, r := range n.Rhs {
					if exprUsesTainted(f, r, tainted) {
						rhsTainted = true
						break
					}
				}
				for _, lhs := range n.Lhs {
					if taintLHS(lhs, rhsTainted) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				rhsTainted := false
				for _, v := range n.Values {
					if exprUsesTainted(f, v, tainted) {
						rhsTainted = true
						break
					}
				}
				for _, name := range n.Names {
					if taintLHS(name, rhsTainted) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// exprUsesTainted reports whether any identifier under e resolves to a
// tainted object.
func exprUsesTainted(f *File, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := f.Info.Uses[id]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
