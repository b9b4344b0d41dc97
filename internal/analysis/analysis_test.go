package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadFixturePkg parses one testdata fixture directory under a simulated
// import path, so kernel- and facade-scoped checks see the path shape they
// key on.
func loadFixturePkg(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := LoadDir(fset, dir, importPath, "nwhy")
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

const wantMarker = "// want "

// wantedDiags collects the // want <check...> line markers of a fixture
// package as a map from "file:line" to the expected check names (sorted).
func wantedDiags(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	for _, f := range pkg.Files {
		data, err := os.ReadFile(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			key := fmt.Sprintf("%s:%d", f.Name, i+1)
			want[key] = append(want[key], strings.Fields(line[idx+len(wantMarker):])...)
			sort.Strings(want[key])
		}
	}
	return want
}

// gotDiags groups diagnostics the same way wantedDiags groups markers.
func gotDiags(diags []Diagnostic) map[string][]string {
	got := map[string][]string{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Check)
		sort.Strings(got[key])
	}
	return got
}

// TestGoldenFixtures runs each check over its violating and clean fixture
// packages and compares the diagnostics against the // want line markers.
// The bad fixtures double as the exit-code guarantee: an engine param out
// of position, a naked go statement, and friends all must produce
// diagnostics.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		name  string
		check string
		dir   string
		path  string
	}{
		{"engine-first/bad", "engine-first", "enginefirst/bad", "nwhy/internal/graph"},
		{"engine-first/clean", "engine-first", "enginefirst/clean", "nwhy/internal/graph"},
		{"engine-first/facade", "engine-first", "enginefirst/facade", "nwhy"},
		{"no-naked-goroutine/bad", "no-naked-goroutine", "goroutine/bad", "nwhy/internal/core"},
		{"no-naked-goroutine/clean", "no-naked-goroutine", "goroutine/clean", "nwhy/internal/core"},
		{"ctx-at-rounds/bad", "ctx-at-rounds", "ctxrounds/bad", "nwhy/internal/graph"},
		{"ctx-at-rounds/clean", "ctx-at-rounds", "ctxrounds/clean", "nwhy/internal/graph"},
		{"ctx-first-handler/bad", "ctx-first-handler", "ctxhandler/bad", "nwhy/cmd/nwhyd"},
		{"ctx-first-handler/clean", "ctx-first-handler", "ctxhandler/clean", "nwhy/internal/server"},
		{"tls-recycle/bad", "tls-recycle", "tlsrecycle/bad", "nwhy/internal/graph"},
		{"tls-recycle/clean", "tls-recycle", "tlsrecycle/clean", "nwhy/internal/graph"},
		{"ctx-propagation/bad", "ctx-propagation", "ctxprop/bad", "nwhy/internal/server"},
		{"ctx-propagation/clean", "ctx-propagation", "ctxprop/clean", "nwhy/internal/server"},
		{"locks-balanced/bad", "locks-balanced", "locks/bad", "nwhy/internal/server"},
		{"locks-balanced/clean", "locks-balanced", "locks/clean", "nwhy/internal/server"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := LookupCheck(tc.check)
			if check == nil {
				t.Fatalf("check %q not registered", tc.check)
			}
			pkg := loadFixturePkg(t, filepath.Join("testdata", "src", tc.dir), tc.path)
			want := wantedDiags(t, pkg)
			if strings.HasSuffix(tc.name, "/bad") && len(want) == 0 {
				t.Fatalf("bad fixture %s has no // want markers", tc.dir)
			}
			diags := Run([]*Package{pkg}, []*Check{check})
			got := gotDiags(diags)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull output:\n%s", got, want, render(diags))
			}
		})
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d.String())
	}
	return b.String()
}

// TestDiagnosticString pins the file:line:col: check: message format the CI
// step and editors key on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Check:   "engine-first",
		Message: "m",
	}
	if got, want := d.String(), "x.go:3:7: engine-first: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestChecksRegistered pins the check vocabulary: the seven invariants must
// all be registered, sorted, and uniquely named.
func TestChecksRegistered(t *testing.T) {
	want := []string{
		"ctx-at-rounds", "ctx-first-handler",
		"ctx-propagation", "engine-first", "locks-balanced",
		"no-naked-goroutine", "tls-recycle",
	}
	var got []string
	for _, c := range Checks() {
		got = append(got, c.Name)
		if c.Doc == "" {
			t.Errorf("check %s has no doc string", c.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Checks() = %v, want %v", got, want)
	}
}
