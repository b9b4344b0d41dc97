package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(&Check{
		Name: "locks-balanced",
		Doc: "every Mutex/RWMutex Lock pairs with a same-function Unlock or " +
			"defer Unlock; serving code must not hold a lock across parallel " +
			"regions or channel operations",
		Run: runLocksBalanced,
	})
}

// runLocksBalanced enforces two lock disciplines, both on the resolved
// sync.Mutex/RWMutex methods:
//
//   - pairing, module-wide (the parallel runtime itself is exempt — its
//     pool hand-off patterns are the mechanism the rest of the module is
//     being policed onto): a sync.Mutex/RWMutex Lock (or RLock) must have a
//     matching Unlock (RUnlock) or defer Unlock in the same function scope,
//     and a return lexically between a Lock and its first following Unlock
//     is a leak path. Function literals are separate scopes, except bodies
//     deferred directly (defer func(){...}()), which run at function exit
//     and may carry the unlock;
//   - held-across, serving packages only: within the lexical span where a
//     lock is held (Lock to its next matching Unlock, or to end of scope
//     under a defer Unlock), a parallel region call, a statically resolved
//     call that transitively schedules parallel work (per the module call
//     graph), or a channel operation is a stall hazard — every request
//     sharing the lock waits for pool workers to drain. Intentional
//     single-writer serialization (e.g. committing a staged batch under the
//     per-dataset writer lock) is annotated //nwhy:nolint at the site.
//
// Lock identity follows the receiver chain's resolved objects, so s.mu in
// one method and s.mu in a helper literal are the same lock, while two
// different struct fields named mu are not.
func runLocksBalanced(p *Pass) {
	if isParallelPkg(p.Pkg.Path) {
		return
	}
	serving := isServingPkg(p.Pkg.Path)
	var cg *CallGraph
	if serving {
		cg = p.Mod.CallGraph()
	}
	p.funcDecls(func(f *File, d *ast.FuncDecl) {
		var scopes []*lockScope
		collectLockScope(f, cg, d.Body, d.Name.Name, &scopes)
		for _, sc := range scopes {
			analyzeLockScope(p, serving, sc)
		}
	})
}

type lockEvent struct {
	key      string // resolved receiver-chain identity
	path     string // rendered receiver, for messages
	name     string // Lock / Unlock / RLock / RUnlock
	deferred bool
	pos      token.Pos
}

type lockHazard struct {
	pos  token.Pos
	desc string
}

type lockScope struct {
	fname   string
	events  []lockEvent
	hazards []lockHazard
	returns []token.Pos
	end     token.Pos
}

// lockMethodCall classifies call as a sync.Mutex/RWMutex lock-family method
// call (embedded promotion included) and returns the lock's identity.
func lockMethodCall(f *File, call *ast.CallExpr) (key, path, name string, ok bool) {
	fn := typedCallee(f, call)
	if fn == nil {
		return "", "", "", false
	}
	name = fn.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", "", false
	}
	if funcPkgPath(fn) != "sync" {
		return "", "", "", false
	}
	if recv := recvTypeName(fn); recv != "Mutex" && recv != "RWMutex" {
		return "", "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	key, path = memKey(f, sel.X)
	if key == "" {
		return "", "", "", false
	}
	return key, path, name, true
}

// collectLockScope walks one function scope, spawning sibling scopes for
// nested function literals (deferred literal bodies fold into this scope
// with their events marked deferred).
func collectLockScope(f *File, cg *CallGraph, body *ast.BlockStmt, fname string, out *[]*lockScope) {
	sc := &lockScope{fname: fname, end: body.End()}
	*out = append(*out, sc)

	handleCall := func(call *ast.CallExpr, deferred bool) {
		if key, path, name, ok := lockMethodCall(f, call); ok {
			sc.events = append(sc.events, lockEvent{key: key, path: path, name: name, deferred: deferred, pos: call.Pos()})
			return
		}
		if deferred {
			return
		}
		if isParallelRegionCall(f, call) {
			sc.hazards = append(sc.hazards, lockHazard{call.Pos(), "a parallel region"})
			return
		}
		if cg != nil {
			if callee := typedCallee(f, call); callee != nil && cg.LaunchesParallel(callee) {
				sc.hazards = append(sc.hazards, lockHazard{call.Pos(), callee.Name() + " (which schedules parallel work)"})
			}
		}
	}

	var scan func(root ast.Node, deferred bool)
	scan = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				collectLockScope(f, cg, n.Body, fname+" (closure)", out)
				return false
			case *ast.DeferStmt:
				handleCall(n.Call, true)
				if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					scan(fl.Body, true)
				} else {
					for _, a := range n.Call.Args {
						scan(a, deferred)
					}
				}
				return false
			case *ast.CallExpr:
				handleCall(n, deferred)
			case *ast.SendStmt:
				sc.hazards = append(sc.hazards, lockHazard{n.Pos(), "a channel send"})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					sc.hazards = append(sc.hazards, lockHazard{n.Pos(), "a channel receive"})
				}
			case *ast.SelectStmt:
				sc.hazards = append(sc.hazards, lockHazard{n.Pos(), "a select"})
			case *ast.RangeStmt:
				if t := f.Info.TypeOf(n.X); t != nil {
					if _, isChan := types.Unalias(t).Underlying().(*types.Chan); isChan {
						sc.hazards = append(sc.hazards, lockHazard{n.X.Pos(), "a channel range"})
					}
				}
			case *ast.ReturnStmt:
				if !deferred {
					sc.returns = append(sc.returns, n.Pos())
				}
			}
			return true
		})
	}
	scan(body, false)
}

var lockPairs = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// analyzeLockScope applies the pairing and held-across rules to one scope.
func analyzeLockScope(p *Pass, serving bool, sc *lockScope) {
	reportedHazard := map[token.Pos]bool{}
	for _, lock := range sc.events {
		want, isLock := lockPairs[lock.name]
		if !isLock || lock.deferred {
			continue
		}
		hasDefer := false
		firstPlain := token.NoPos
		for _, e := range sc.events {
			if e.key != lock.key || e.name != want {
				continue
			}
			if e.deferred {
				hasDefer = true
			} else if e.pos > lock.pos && (firstPlain == token.NoPos || e.pos < firstPlain) {
				firstPlain = e.pos
			}
		}
		if !hasDefer && firstPlain == token.NoPos {
			// An unlock lexically before the lock (loop bodies) still pairs.
			paired := false
			for _, e := range sc.events {
				if e.key == lock.key && e.name == want {
					paired = true
					break
				}
			}
			if !paired {
				p.Reportf(lock.pos, "%s.%s() has no matching %s in %s; unlock on every path (or defer it)",
					lock.path, lock.name, want, sc.fname)
				continue
			}
		}
		spanEnd := sc.end
		if !hasDefer && firstPlain != token.NoPos {
			spanEnd = firstPlain
			for _, r := range sc.returns {
				if r > lock.pos && r < firstPlain {
					p.Reportf(r, "return between %s.%s() and its %s in %s; this path exits with the lock held — defer the unlock",
						lock.path, lock.name, want, sc.fname)
				}
			}
		}
		if !serving {
			continue
		}
		for _, h := range sc.hazards {
			if h.pos > lock.pos && h.pos < spanEnd && !reportedHazard[h.pos] {
				reportedHazard[h.pos] = true
				p.Reportf(h.pos, "%s is held across %s; release the lock before blocking or scheduling parallel work",
					lock.path, h.desc)
			}
		}
	}
}
