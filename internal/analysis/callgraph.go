package analysis

import (
	"go/ast"
	"go/types"
)

// Module is the unit of one Run: every package handed to Run plus the
// lazily built module-wide call graph. Interprocedural checks reach it
// through Pass.Mod.
type Module struct {
	Pkgs []*Package
	cg   *CallGraph
}

// CallGraph returns the static call graph over the module's function
// declarations, built on first use.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m.Pkgs)
	}
	return m.cg
}

// CallGraph maps each declared function or method (the *types.Func from its
// declaration — loaders guarantee one types.Package per import path, so
// call-site Uses and declaration Defs agree on identity) to its statically
// resolved callees. Dynamic dispatch through func values, and interface
// calls without a unique static target, are out of scope: the graph
// under-approximates, which keeps its clients' diagnostics precise. Only
// packages included in the Run contribute nodes; calls into packages
// outside it are classified by the region vocabulary alone.
type CallGraph struct {
	callees map[*types.Func][]*types.Func
	launch  map[*types.Func]bool // contains a region call, transitively
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		callees: map[*types.Func][]*types.Func{},
		launch:  map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				def, _ := f.Info.Defs[fd.Name].(*types.Func)
				if def == nil {
					continue
				}
				var outs []*types.Func
				region := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if isParallelRegionCall(f, call) {
						region = true
					}
					if callee := typedCallee(f, call); callee != nil {
						outs = append(outs, callee)
					}
					return true
				})
				cg.callees[def] = outs
				cg.launch[def] = region
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, outs := range cg.callees {
			if cg.launch[fn] {
				continue
			}
			for _, c := range outs {
				if cg.launch[c] {
					cg.launch[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return cg
}

// LaunchesParallel reports whether fn (directly or through any declared
// callee) schedules work on pool workers. Region entry points themselves
// count.
func (cg *CallGraph) LaunchesParallel(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	return cg.launch[fn] || typedRegionFunc(fn)
}
