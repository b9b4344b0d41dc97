package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"nwhy"
)

func TestHygenList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"com-orkut-mini", "rand1-mini", "web-mini"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %s", want)
		}
	}
}

func TestHygenWritesLoadableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.mtx")
	var out bytes.Buffer
	if err := run([]string{"-gen", "uniform", "-edges", "50", "-nodes", "80", "-size", "4", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Fatalf("missing summary: %q", out.String())
	}
	g, err := nwhy.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 50 || g.NumNodes() != 80 {
		t.Fatalf("shape %d/%d", g.NumEdges(), g.NumNodes())
	}
}

func TestHygenWritesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.nwhyb")
	var out bytes.Buffer
	if err := run([]string{"-gen", "uniform", "-edges", "50", "-nodes", "80", "-size", "4", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	g, err := nwhy.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 50 || g.NumNodes() != 80 {
		t.Fatalf("shape %d/%d", g.NumEdges(), g.NumNodes())
	}
	if g.NumIncidences() != 50*4 {
		t.Fatalf("incidences %d", g.NumIncidences())
	}
}

func TestHygenStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gen", "uniform", "-edges", "3", "-nodes", "5", "-size", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "%%MatrixMarket") {
		t.Fatalf("stdout output not Matrix Market: %q", out.String()[:40])
	}
}

func TestHygenPreset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.mtx")
	if err := run([]string{"-preset", "rand1-mini", "-scale", "0.01", "-o", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nwhy.Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestHygenErrors(t *testing.T) {
	if err := run([]string{"-gen", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if err := run([]string{"-preset", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"-bogus-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestHygenCommunityAndBipartite(t *testing.T) {
	for _, args := range [][]string{
		{"-gen", "community", "-edges", "40", "-nodes", "30", "-mean", "4"},
		{"-gen", "bipartite", "-edges", "40", "-nodes", "30", "-incidences", "200"},
		{"-gen", "rmat", "-edges", "64", "-nodes", "64", "-incidences", "300"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%v: no output", args)
		}
	}
}
