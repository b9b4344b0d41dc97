package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(&Check{
		Name: "tls-recycle",
		Doc: "arena Gets (Engine.GrabU32/Grab) in kernels must have a " +
			"matching Stash/FlattenTLS/Release in the same function",
		Run: runTLSRecycle,
	})
}

// grabNames / recycleNames are the two halves of the arena protocol.
// FlattenTLS counts as a recycle because it drains per-worker buffers into
// one result and hands each buffer to its recycle callback; Release counts
// because frontier.Release stashes both frontier buffers.
var (
	grabNames    = map[string]bool{"GrabU32": true, "Grab": true}
	recycleNames = map[string]bool{"StashU32": true, "Stash": true, "FlattenTLS": true, "Release": true}
)

// runTLSRecycle pairs arena Gets with their recycle, per function, inside
// the kernel packages. The pairing is lexical (AST-level), not data-flow:
//
//   - a function that acquires arena scratch but never mentions a recycle
//     leaks buffers out of the steady-state reuse loop — flagged at the
//     grab;
//   - a return statement lexically between the first grab and the first
//     recycle mention is an escape path on which nothing has been stashed
//     yet — flagged at the return.
//
// Two package-local wrapper patterns are understood so the check pairs at
// the right altitude: a function that returns arena-grabbed scratch to its
// caller (an ownership-transferring grab wrapper, e.g. slinegraph's
// grabWorker) is exempt itself and counts as a grab at its call sites, and
// a function that contains a recycle (e.g. stashWorkers or stashView)
// counts as a recycle at its call sites. The frontier substrate is
// outside the kernel scope entirely: its constructors transfer buffer
// ownership into the Frontier, recycled by EdgeMap or Release at the
// consumer.
func runTLSRecycle(p *Pass) {
	if !isKernelPkg(p.Pkg.Path) {
		return
	}
	grabLike, recycleLike := arenaWrappers(p)
	p.funcDecls(func(f *File, d *ast.FuncDecl) {
		if grabLike[f.Info.Defs[d.Name]] {
			return // transfers ownership of the grabbed scratch to its caller
		}
		var grabs, recycles []token.Pos
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if isArenaSel(f, n, grabNames) {
					grabs = append(grabs, n.Pos())
				} else if isArenaSel(f, n, recycleNames) {
					recycles = append(recycles, n.Pos())
				}
			case *ast.CallExpr:
				if fn := typedCallee(f, n); grabLike[fn] {
					grabs = append(grabs, n.Pos())
				} else if recycleLike[fn] {
					recycles = append(recycles, n.Pos())
				}
			}
			return true
		})
		if len(grabs) == 0 {
			return
		}
		if len(recycles) == 0 {
			p.Reportf(grabs[0], "%s grabs arena scratch but never stashes it back (no Stash/FlattenTLS/Release on any path)", d.Name.Name)
			return
		}
		firstGrab, firstRecycle := grabs[0], recycles[0]
		for _, r := range recycles {
			if r < firstRecycle {
				firstRecycle = r
			}
		}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			if ret.Pos() > firstGrab && ret.Pos() < firstRecycle {
				p.Reportf(ret.Pos(), "return path between arena grab and its recycle in %s; stash scratch before returning", d.Name.Name)
			}
			return true
		})
	})
}

// arenaWrappers classifies the package's plain functions, keyed by their
// declared object: grabLike functions hand arena-grabbed scratch to their
// caller (a grab reaches a return statement), recycleLike functions contain
// a recycle mention. Both close transitively over package-local calls.
func arenaWrappers(p *Pass) (grabLike, recycleLike map[types.Object]bool) {
	grabLike, recycleLike = map[types.Object]bool{}, map[types.Object]bool{}
	type fnDecl struct {
		decl *ast.FuncDecl
		file *File
	}
	decls := map[types.Object]fnDecl{}
	p.funcDecls(func(f *File, d *ast.FuncDecl) {
		if d.Recv == nil {
			decls[f.Info.Defs[d.Name]] = fnDecl{d, f}
		}
	})
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if !grabLike[fn] && returnsGrabbedScratch(fd.file, fd.decl, grabLike) {
				grabLike[fn] = true
				changed = true
			}
			if !recycleLike[fn] && mentionsRecycle(fd.file, fd.decl, recycleLike) {
				recycleLike[fn] = true
				changed = true
			}
		}
	}
	return grabLike, recycleLike
}

// returnsGrabbedScratch reports whether a grab result reaches a return
// statement of d: a return expression containing a grab call directly, or
// containing an identifier previously assigned from one.
func returnsGrabbedScratch(f *File, d *ast.FuncDecl, grabLike map[types.Object]bool) bool {
	if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
		return false
	}
	isGrabCall := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isArenaSel(f, sel, grabNames) {
			return true
		}
		return grabLike[typedCallee(f, call)]
	}
	// Identifiers assigned (directly or through a pointer) from a grab.
	tainted := map[string]bool{}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromGrab := false
		for _, rhs := range as.Rhs {
			ast.Inspect(rhs, func(m ast.Node) bool {
				if isGrabCall(m) {
					fromGrab = true
				}
				return !fromGrab
			})
		}
		if !fromGrab {
			return true
		}
		for _, lhs := range as.Lhs {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				tainted[l.Name] = true
			case *ast.StarExpr:
				if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
					tainted[id.Name] = true
				}
			}
		}
		return true
	})
	escapes := false
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if escapes {
					return false
				}
				if isGrabCall(m) {
					escapes = true
				}
				if id, ok := m.(*ast.Ident); ok && tainted[id.Name] {
					escapes = true
				}
				return true
			})
		}
		return true
	})
	return escapes
}

// mentionsRecycle reports whether d contains a recycle selector or a call
// to a recycleLike package-local function.
func mentionsRecycle(f *File, d *ast.FuncDecl, recycleLike map[types.Object]bool) bool {
	found := false
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isArenaSel(f, n, recycleNames) {
				found = true
			}
		case *ast.CallExpr:
			if recycleLike[typedCallee(f, n)] {
				found = true
			}
		}
		return true
	})
	return found
}

// isArenaSel reports whether sel names one of the arena protocol functions
// of the parallel runtime or the frontier substrate — an unrelated method
// that happens to be called Stash does not count.
func isArenaSel(f *File, sel *ast.SelectorExpr, names map[string]bool) bool {
	fn, ok := f.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !names[fn.Name()] {
		return false
	}
	pkg := funcPkgPath(fn)
	return isParallelPkg(pkg) || isFrontierPkg(pkg)
}
