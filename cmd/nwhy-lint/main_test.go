package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint invokes run with captured stdout/stderr and returns the exit
// code plus both streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListMode(t *testing.T) {
	code, stdout, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{
		"engine-first", "no-naked-goroutine", "ctx-at-rounds", "tls-recycle",
		"ctx-propagation", "locks-balanced", "ctx-first-handler",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}

// TestUnknownCheckFlag pins that -list is the only flag: the retired
// -checks, -json and -v are usage errors.
func TestUnknownCheckFlag(t *testing.T) {
	for _, flag := range []string{"-checks=engine-first", "-json", "-v"} {
		if code, _, _ := runLint(t, flag, "./..."); code != 2 {
			t.Errorf("%s exited %d, want 2", flag, code)
		}
	}
}

// TestModuleIsClean runs the linter the way CI does: the whole module must
// exit 0 with no output, every suppression justified and used.
func TestModuleIsClean(t *testing.T) {
	code, stdout, stderr := runLint(t, "./...")
	if code != 0 {
		t.Errorf("lint over the module exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("expected no diagnostics, got:\n%s", stdout)
	}
}

// scratchModule writes a one-package module holding src as
// internal/core/core.go and makes it the working directory.
func scratchModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "core.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

// TestDiagnosticsText lints a scratch module with a seeded violation: exit
// 1 and one file:line:col: check: message line before the summary.
func TestDiagnosticsText(t *testing.T) {
	scratchModule(t, "package core\n\nfunc fire(done chan struct{}) {\n\tgo close(done)\n}\n")
	code, stdout, stderr := runLint(t, "./...")
	if code != 1 {
		t.Fatalf("seeded violation exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[1], "1 diagnostic(s)") {
		t.Fatalf("want one diagnostic and the summary, got:\n%s", stdout)
	}
	if want := filepath.Join("internal", "core", "core.go") + ":4:2: no-naked-goroutine: "; !strings.Contains(lines[0], want) {
		t.Errorf("diagnostic %q does not contain %q", lines[0], want)
	}
}

// TestTypeErrorExitsTwo pins that a package which does not type-check is a
// load error: exit 2, the error on stderr, nothing on stdout.
func TestTypeErrorExitsTwo(t *testing.T) {
	scratchModule(t, "package core\n\nfunc fire() int {\n\treturn undefinedName\n}\n")
	code, stdout, stderr := runLint(t, "./...")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "undefinedName") {
		t.Fatalf("type error: exit %d, stdout %q, stderr %q; want exit 2 and the error on stderr", code, stdout, stderr)
	}
}
