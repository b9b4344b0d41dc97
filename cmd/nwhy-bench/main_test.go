package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchTable1(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "table1", "-scale", "0.02", "-datasets", "rand1-mini,com-orkut-mini"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table I") || !strings.Contains(s, "rand1-mini") || !strings.Contains(s, "com-orkut-mini") {
		t.Fatalf("table1 output wrong: %q", s)
	}
}

func TestBenchFig7(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig7", "-scale", "0.02", "-threads", "1,2", "-reps", "1", "-datasets", "rand1-mini"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 7", "HyperCC", "AdjoinCC", "HygraCC"} {
		if !strings.Contains(s, want) {
			t.Fatalf("fig7 output missing %s: %q", want, s)
		}
	}
	if strings.Count(s, "µ")+strings.Count(s, "ms") < 6 {
		t.Fatalf("fig7 missing timings: %q", s)
	}
}

func TestBenchFig8(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig8", "-scale", "0.02", "-threads", "1", "-reps", "1", "-datasets", "com-orkut-mini"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 8", "HyperBFS", "AdjoinBFS", "HygraBFS", "reaches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("fig8 output missing %s: %q", want, s)
		}
	}
}

func TestBenchFig9(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig9", "-scale", "0.02", "-s", "1,2", "-reps", "1", "-datasets", "rand1-mini"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 9", "Hashmap", "Alg1(queue)", "Alg2(queue)", "1.00x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("fig9 output missing %s: %q", want, s)
		}
	}
}

func TestBenchAblation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "ablation", "-scale", "0.02", "-reps", "1", "-datasets", "rand1-mini"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ablations", "direct-unionfind", "input=adjoin", "input=bipartite"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ablation output missing %s: %q", want, s)
		}
	}
}

func TestBenchErrors(t *testing.T) {
	cases := [][]string{
		{"-exp", "nope"},
		{"-exp", "partition"}, // a retired name is unknown like any other
		{"-exp", "fig9", "-quick"},
		{"-datasets", "nope"},
		{"-threads", "0"},
		{"-threads", "x"},
		{"-s", "-3"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if v, err := parseInts(""); v != nil || err != nil {
		t.Fatal("empty list should be nil, nil")
	}
}
