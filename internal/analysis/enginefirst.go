package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(&Check{
		Name: "engine-first",
		Doc: "kernels take the *parallel.Engine as their first argument; " +
			"parallel.SharedEngine() is confined to the facade package",
		Run: runEngineFirst,
	})
}

// runEngineFirst enforces the explicit-engine discipline of PR 1:
//
//   - in the algorithm-layer packages, any function with a
//     *parallel.Engine parameter must take it first (functions without an
//     engine parameter receive it through a carrying type, e.g. a method
//     whose receiver holds one, and are not flagged);
//   - the algorithm-layer packages must not declare package-level engines,
//     a backdoor to implicit process-global execution state (there are no
//     default-pool loop entry points left to call: every loop of
//     internal/parallel runs on an engine, so a kernel that reaches for the
//     default pool does not compile);
//   - parallel.SharedEngine() may only be referenced from the facade
//     package (the module root) and the runtime itself. Everything else
//     receives its engine from the caller.
//
// Test files are exempt throughout: tests construct and share engines
// freely.
func runEngineFirst(p *Pass) {
	facade := p.Pkg.Path == p.Pkg.Module
	if !facade && !isParallelPkg(p.Pkg.Path) {
		p.walkFiles(func(f *File) {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "SharedEngine" {
					return true
				}
				if fn, isFn := f.Info.Uses[sel.Sel].(*types.Func); isFn && isParallelPkg(funcPkgPath(fn)) {
					p.Reportf(sel.Pos(), "parallel.SharedEngine is confined to the facade package; take a *parallel.Engine from the caller instead")
				}
				return true
			})
		})
	}

	if !isKernelPkg(p.Pkg.Path) {
		return
	}
	p.walkFiles(func(f *File) {
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkEngineParamFirst(p, f, d)
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if vs.Type != nil && isEnginePtrType(f, vs.Type) {
						p.Reportf(vs.Pos(), "package-level *parallel.Engine variable; kernels must receive their engine per call")
					}
					for _, v := range vs.Values {
						call, ok := ast.Unparen(v).(*ast.CallExpr)
						if !ok {
							continue
						}
						if fn := typedCallee(f, call); fn != nil && isParallelPkg(funcPkgPath(fn)) &&
							(fn.Name() == "SharedEngine" || fn.Name() == "NewEngine") {
							p.Reportf(vs.Pos(), "package-level engine binding (parallel.%s); kernels must receive their engine per call", fn.Name())
						}
					}
				}
			}
		}
	})
}

// checkEngineParamFirst flags engine parameters that are not first.
func checkEngineParamFirst(p *Pass, f *File, d *ast.FuncDecl) {
	if d.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range d.Type.Params.List {
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if isEnginePtrType(f, field.Type) && idx != 0 {
			p.Reportf(field.Pos(), "%s takes *parallel.Engine as parameter %d; the engine must come first", d.Name.Name, idx+1)
		}
		idx += width
	}
}
