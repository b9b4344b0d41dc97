package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeExample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.mtx")
	content := `%%MatrixMarket matrix coordinate pattern general
4 9 13
1 1
1 2
1 3
2 3
2 4
2 5
3 5
3 6
3 7
4 7
4 8
4 9
4 1
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHyperstatsFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{writeExample(t)}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "9") || !strings.Contains(s, "4") {
		t.Fatalf("stats missing counts: %q", s)
	}
}

func TestHyperstatsComponentsAndToplexes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-components", "-toplexes", "-dists", writeExample(t)}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "connected components: 1") {
		t.Fatalf("components missing: %q", s)
	}
	if !strings.Contains(s, "toplexes: 4 of 4") {
		t.Fatalf("toplexes missing: %q", s)
	}
	if !strings.Contains(s, "edge-size distribution") {
		t.Fatalf("dists missing: %q", s)
	}
}

func TestHyperstatsPreset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "rand1-mini", "-scale", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rand1-mini") {
		t.Fatal("preset name missing from output")
	}
}

// -save-snapshot must write a .nwhyb the tool itself can then read back,
// with the same stats as the text original.
func TestHyperstatsSnapshotRoundTrip(t *testing.T) {
	mtx := writeExample(t)
	snap := filepath.Join(t.TempDir(), "h.nwhyb")
	var out bytes.Buffer
	if err := run([]string{"-save-snapshot", snap, mtx}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snapshot written to "+snap) {
		t.Fatalf("snapshot confirmation missing: %q", out.String())
	}
	statsOf := func(args ...string) string {
		var b bytes.Buffer
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		last := lines[len(lines)-1]
		return last[strings.IndexAny(last, " \t"):] // drop the input-name column
	}
	if text, bin := statsOf(mtx), statsOf(snap); text != bin {
		t.Fatalf("stats disagree:\ntext:   %q\nbinary: %q", text, bin)
	}
}

func TestHyperstatsErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("no input accepted")
	}
	if err := run([]string{"-preset", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"/nonexistent.mtx"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}
