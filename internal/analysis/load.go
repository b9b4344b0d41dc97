package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
)

// Load parses and type-checks the packages matched by patterns
// (directories, optionally with a /... suffix) relative to the module root
// and returns them ready for Run. Directories named testdata or vendor and
// hidden directories are skipped, matching the go tool's convention. A
// package that fails to parse or type-check is an error.
func Load(root string, patterns []string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(token.NewFileSet(), root, module)
	paths, err := l.matchPatterns(patterns)
	if err != nil {
		return nil, err
	}
	result := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		result = append(result, pkg)
	}
	return result, nil
}

// LoadDir parses every .go file of one directory as a single Package with
// the given import path and type-checks its non-test files; module-internal
// imports resolve against the enclosing module on disk. Test files are
// included and marked, but carry no type information.
func LoadDir(fset *token.FileSet, dir, importPath, module string) (*Package, error) {
	pkg, err := parseDir(fset, dir, importPath, module)
	if err != nil {
		return nil, err
	}
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	if err := newLoader(fset, root, module).check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// loader parses and type-checks packages of one module on the calling
// goroutine. Each import path is checked at most once, so every consumer of
// a package sees the same *types.Package — object identity is what the call
// graph and the typed checks key on. Module-internal imports are checked
// from source on first use, recursively through the importer; everything
// else comes from the shared stdlib importer.
type loader struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module import path
	pkgs   map[string]*Package
}

func newLoader(fset *token.FileSet, root, module string) *loader {
	return &loader{fset: fset, root: root, module: module, pkgs: map[string]*Package{}}
}

// load returns importPath's package, parsed and type-checked. A nil entry
// marks a check in progress, so an import cycle is an error rather than a
// loop (it would fail `go build` too).
func (l *loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	pkg, err := parseDir(l.fset, l.dirFor(importPath), importPath, l.module)
	if err != nil {
		return nil, err
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// check type-checks pkg's non-test files and attaches the Info to them.
func (l *loader) check(pkg *Package) error {
	l.pkgs[pkg.Path] = nil
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
			f.Info = info
		}
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tp, err := conf.Check(pkg.Path, l.fset, files, info)
	if err != nil {
		delete(l.pkgs, pkg.Path)
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tp
	l.pkgs[pkg.Path] = pkg
	return nil
}

// loaderImporter adapts a loader to types.Importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(li)
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return stdImport(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// stdlib is the process-wide cache in front of the source-mode stdlib
// importer: re-checking the standard library per loader would dominate
// load time, so one instance (with its own FileSet — stdlib positions are
// never reported) serves every loader. The mutex only guards the cache
// against loaders running on different goroutines.
var stdlib struct {
	sync.Mutex
	imp  types.Importer
	pkgs map[string]*types.Package
}

func stdImport(path string) (*types.Package, error) {
	stdlib.Lock()
	defer stdlib.Unlock()
	if stdlib.imp == nil {
		stdlib.imp = importer.ForCompiler(token.NewFileSet(), "source", nil)
		stdlib.pkgs = map[string]*types.Package{}
	}
	if p, ok := stdlib.pkgs[path]; ok {
		return p, nil
	}
	p, err := stdlib.imp.Import(path)
	if err != nil {
		return nil, err
	}
	stdlib.pkgs[path] = p
	return p, nil
}

// dirFor maps a module-internal import path to its directory on disk.
func (l *loader) dirFor(importPath string) string {
	if importPath == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(importPath, l.module+"/")))
}

// matchPatterns resolves the pattern list to module import paths.
func (l *loader) matchPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		abs := filepath.Clean(dir)
		if seen[abs] {
			return nil
		}
		seen[abs] = true
		ok, err := hasGoFiles(abs)
		if err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(l.root, abs)
		if err != nil {
			return err
		}
		importPath := l.module
		if rel != "." {
			importPath = path.Join(l.module, filepath.ToSlash(rel))
		}
		out = append(out, importPath)
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.root, pat)
		}
		if !recursive {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseDir parses every .go file of dir, test files included: checks skip
// them, but their //nwhy:nolint comments still count.
func parseDir(fset *token.FileSet, dir, importPath, module string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Module: module, Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		astFile, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		f := &File{
			Name:         name,
			AST:          astFile,
			Test:         strings.HasSuffix(e.Name(), "_test.go"),
			suppressions: parseSuppressions(fset, astFile),
		}
		if pkg.Name == "" && !f.Test {
			pkg.Name = astFile.Name.Name
		}
		pkg.Files = append(pkg.Files, f)
	}
	if pkg.Name == "" && len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].AST.Name.Name
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return pkg, nil
}

// modulePath reads the module declaration from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}
