package analysis

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadModulePkgs loads patterns from the real enclosing module.
func loadModulePkgs(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestTypedLoadRealPackages pins the loader contract on real module code:
// every loaded package carries a *types.Package, its non-test files share
// one populated *types.Info, and test files are parsed but not checked.
func TestTypedLoadRealPackages(t *testing.T) {
	pkgs := loadModulePkgs(t, "./internal/parallel", "./internal/core")
	if len(pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil {
			t.Fatalf("%s: missing type information", p.Path)
		}
		var info *types.Info
		tests := 0
		for _, f := range p.Files {
			if f.Test {
				tests++
				if f.Info != nil {
					t.Errorf("%s: test file %s was type-checked", p.Path, f.Name)
				}
				continue
			}
			if f.Info == nil || len(f.Info.Uses) == 0 {
				t.Fatalf("%s: file %s has no Info", p.Path, f.Name)
			}
			if info != nil && f.Info != info {
				t.Errorf("%s: non-test file %s has an Info of its own", p.Path, f.Name)
			}
			info = f.Info
		}
		if tests == 0 {
			t.Errorf("%s: test files were not parsed", p.Path)
		}
	}
}

// TestTypedLoadGenerics verifies the loader handles generic declarations
// and records instantiations: RadixSort64On and ReduceWith are generic, and
// their call sites land in Info.Instances.
func TestTypedLoadGenerics(t *testing.T) {
	pkgs := loadModulePkgs(t, "./internal/parallel")
	p := pkgs[0]
	for _, name := range []string{"RadixSort64On", "ReduceWith"} {
		obj := p.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("%s not found in %s", name, p.Path)
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.TypeParams().Len() == 0 {
			t.Errorf("%s: expected a generic signature, got %v", name, obj.Type())
		}
	}
	for _, f := range p.Files {
		if f.Info != nil && len(f.Info.Instances) > 0 {
			return
		}
	}
	t.Error("no generic instantiations recorded")
}

// TestLoadDirTypeError pins that a package which does not type-check is a
// load error: checks never run on partial type information.
func TestLoadDirTypeError(t *testing.T) {
	dir := filepath.Join("testdata", "src", "typeerror")
	_, err := LoadDir(token.NewFileSet(), dir, "nwhy/internal/graph", "nwhy")
	if err == nil || !strings.Contains(err.Error(), "Spin") {
		t.Fatalf("LoadDir(%s) = %v, want the planted type error", dir, err)
	}
}

// TestLoadDirCorrupted pins the hard-failure path: a directory whose Go
// source does not parse is an error, not a silent partial package.
func TestLoadDirCorrupted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(token.NewFileSet(), dir, "nwhy/internal/broken", "nwhy"); err == nil {
		t.Fatal("LoadDir succeeded on unparseable source")
	}
}

// TestLoadDirEmpty pins the no-files error.
func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(token.NewFileSet(), t.TempDir(), "nwhy/internal/empty", "nwhy"); err == nil {
		t.Fatal("LoadDir succeeded on an empty directory")
	}
}
