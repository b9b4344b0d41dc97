// Package analysis is NWHy-Go's zero-dependency static-analysis framework:
// a type-aware, module-wide analyzer runner with file/line diagnostics and
// //nwhy:nolint suppressions, built on the standard library only (go/ast,
// go/parser, go/token, go/types with a source importer — no
// golang.org/x/tools).
//
// The framework exists to machine-enforce the engine and concurrency
// invariants the repo established by convention: every kernel threads an
// explicit *parallel.Engine, all concurrency flows through the pool,
// multi-round drivers observe cancellation, arena scratch is recycled,
// serving paths thread the request context, and locks balance. Each
// invariant is a registered Check; cmd/nwhy-lint runs them all over the
// module.
//
// Load parses each package and type-checks its non-test files, resolving
// module-internal imports from source and the standard library through a
// shared source importer, one package at a time. Every check resolves
// calls, types and objects through go/types; a package that does not
// type-check is a load error, not a degraded analysis.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// File is one parsed source file.
type File struct {
	Name string // path on disk
	AST  *ast.File
	Test bool // *_test.go
	// Info is the package's go/types information; every non-test file of
	// a package shares it. Test files are never type-checked (no check
	// reads them) and have none.
	Info *types.Info

	suppressions []suppression
}

// Package is one directory's worth of parsed files (test files included,
// marked Test; external _test packages ride along in the same Package).
type Package struct {
	Path   string // import path
	Module string // module path (the facade package has Path == Module)
	Name   string
	Fset   *token.FileSet
	Files  []*File
	Types  *types.Package // the type-checked non-test files
}

// Check is one registered invariant: a stable name (the key used in
// //nwhy:nolint suppressions), a one-line doc string, and the pass body.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one (check, package) run handed to Check.Run. Mod gives
// interprocedural checks the module-wide view (every package of the Run,
// plus the lazily built call graph).
type Pass struct {
	Check *Check
	Pkg   *Package
	Mod   *Module
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

var registry []*Check

// Register adds a check to the global registry. Checks register themselves
// from init so cmd/nwhy-lint and the tests see one authoritative list.
func Register(c *Check) {
	for _, r := range registry {
		if r.Name == c.Name {
			panic("analysis: duplicate check " + c.Name)
		}
	}
	registry = append(registry, c)
}

// Checks returns the registered checks sorted by name.
func Checks() []*Check {
	out := append([]*Check(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupCheck resolves a check by name.
func LookupCheck(name string) *Check {
	for _, c := range registry {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Run executes the checks over the packages, applies //nwhy:nolint
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed suppressions (unknown check, missing reason) surface as
// diagnostics of the pseudo-check "nolint" and cannot be suppressed, as
// does a suppression that silenced nothing although every check it names
// ran.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	mod := &Module{Pkgs: pkgs}
	ran := map[string]bool{}
	var raw []Diagnostic
	for _, c := range checks {
		ran[c.Name] = true
		for _, pkg := range pkgs {
			c.Run(&Pass{Check: c, Pkg: pkg, Mod: mod, diags: &raw})
		}
	}

	var out []Diagnostic
	used := map[*suppression]bool{}
	for _, d := range raw {
		if s := matchSuppression(pkgs, d); s != nil {
			used[s] = true
			continue
		}
		out = append(out, d)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for i := range f.suppressions {
				s := &f.suppressions[i]
				if s.err != "" {
					out = append(out, Diagnostic{Pos: pkg.Fset.Position(s.pos), Check: "nolint", Message: s.err})
				} else if !used[s] && allRan(s.checks, ran) {
					out = append(out, Diagnostic{
						Pos:     pkg.Fset.Position(s.pos),
						Check:   "nolint",
						Message: fmt.Sprintf("unused suppression for %s", strings.Join(s.checks, ", ")),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

func allRan(names []string, ran map[string]bool) bool {
	for _, n := range names {
		if !ran[n] {
			return false
		}
	}
	return true
}

// walkFiles visits every non-test file of the pass's package.
func (p *Pass) walkFiles(fn func(f *File)) {
	for _, f := range p.Pkg.Files {
		if f.Test {
			continue
		}
		fn(f)
	}
}

// funcDecls visits every function declaration in non-test files.
func (p *Pass) funcDecls(fn func(f *File, d *ast.FuncDecl)) {
	p.walkFiles(func(f *File) {
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	})
}
