package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// loadSourcePkg builds and type-checks a single-file Package straight from
// source text, under a simulated import path.
func loadSourcePkg(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	name := importPath + "/fixture.go"
	astFile, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := &File{Name: name, AST: astFile, suppressions: parseSuppressions(fset, astFile)}
	pkg := &Package{Path: importPath, Module: "nwhy", Name: astFile.Name.Name, Fset: fset, Files: []*File{f}}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := newLoader(fset, root, "nwhy").check(pkg); err != nil {
		t.Fatal(err)
	}
	return pkg
}

func runAll(pkg *Package) []Diagnostic {
	return Run([]*Package{pkg}, Checks())
}

func TestSuppressionTrailing(t *testing.T) {
	pkg := loadSourcePkg(t, "nwhy/internal/core", `package core

func fire(done chan struct{}) {
	go close(done) //nwhy:nolint(no-naked-goroutine) exercised only in this test fixture
}
`)
	if diags := runAll(pkg); len(diags) != 0 {
		t.Errorf("trailing suppression did not silence: %v", diags)
	}
}

func TestSuppressionLineAbove(t *testing.T) {
	pkg := loadSourcePkg(t, "nwhy/internal/core", `package core

func fire(done chan struct{}) {
	//nwhy:nolint(no-naked-goroutine) exercised only in this test fixture
	go close(done)
}
`)
	if diags := runAll(pkg); len(diags) != 0 {
		t.Errorf("suppression on the line above did not silence: %v", diags)
	}
}

func TestSuppressionUnknownCheck(t *testing.T) {
	pkg := loadSourcePkg(t, "nwhy/internal/core", `package core

//nwhy:nolint(bogus-check) some reason
func fire() {}
`)
	diags := runAll(pkg)
	if len(diags) != 1 || diags[0].Check != "nolint" || !strings.Contains(diags[0].Message, "unknown check") {
		t.Errorf("want one nolint unknown-check diagnostic, got %v", diags)
	}
}

func TestSuppressionMissingReason(t *testing.T) {
	pkg := loadSourcePkg(t, "nwhy/internal/core", `package core

func fire(done chan struct{}) {
	go close(done) //nwhy:nolint(no-naked-goroutine)
}
`)
	diags := runAll(pkg)
	// A reasonless suppression is malformed, so it both reports itself and
	// fails to silence the underlying diagnostic.
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (nolint + unsuppressed), got %v", diags)
	}
	checks := []string{diags[0].Check, diags[1].Check}
	if !(contains(checks, "nolint") && contains(checks, "no-naked-goroutine")) {
		t.Errorf("want nolint + no-naked-goroutine, got %v", checks)
	}
}

func TestSuppressionUnused(t *testing.T) {
	src := `package core

//nwhy:nolint(no-naked-goroutine) nothing here actually violates it
func fire() {}
`
	pkg := loadSourcePkg(t, "nwhy/internal/core", src)
	diags := runAll(pkg)
	if len(diags) != 1 || diags[0].Check != "nolint" || !strings.Contains(diags[0].Message, "unused suppression") {
		t.Errorf("want one unused-suppression diagnostic, got %v", diags)
	}
	// A run without the named check cannot know whether the suppression
	// is needed.
	pkg = loadSourcePkg(t, "nwhy/internal/core", src)
	if diags := Run([]*Package{pkg}, []*Check{LookupCheck("engine-first")}); len(diags) != 0 {
		t.Errorf("unused suppression reported although its check did not run: %v", diags)
	}
}

func TestSuppressionProseMentionIgnored(t *testing.T) {
	pkg := loadSourcePkg(t, "nwhy/internal/core", `package core

// The grammar is //nwhy:nolint(check-name) reason — this is prose, not a
// directive, and must not parse as a suppression.
func fire() {}
`)
	if diags := runAll(pkg); len(diags) != 0 {
		t.Errorf("prose mention of the grammar parsed as a suppression: %v", diags)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
