package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/slinegraph"
)

// naiveEdgeCount is the all-pairs oracle's s=2 edge count on the input the
// agreement tests run (-preset rand1-mini -scale 0.01).
func naiveEdgeCount(t *testing.T) string {
	t.Helper()
	p, err := gen.ByName("rand1-mini")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := slinegraph.Naive(parallel.SharedEngine(), p.Build(0.01), 2)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(len(pairs))
}

func TestSlinegraphAllAlgorithmsAgreeOnEdgeCount(t *testing.T) {
	counts := map[string]string{}
	for _, algo := range []string{"", "intersection", "hashmap", "queue-hashmap", "queue-intersection"} {
		var out bytes.Buffer
		err := run([]string{"-preset", "rand1-mini", "-scale", "0.01", "-s", "2", "-algo", algo, "-reps", "1"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// Extract "N edges in".
		s := out.String()
		idx := strings.Index(s, " edges in")
		if idx < 0 {
			t.Fatalf("%s: no edge count in %q", algo, s)
		}
		start := strings.LastIndexByte(s[:idx], ' ')
		counts[algo] = s[start+1 : idx]
	}
	want := naiveEdgeCount(t)
	for algo, c := range counts {
		if c != want {
			t.Fatalf("-algo %q edge count %s != naive %s (%v)", algo, c, want, counts)
		}
	}
}

func TestSlinegraphOptionsAndComponents(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-preset", "com-orkut-mini", "-scale", "0.02", "-s", "2",
		"-algo", "queue-hashmap", "-adjoin",
		"-threads", "2", "-reps", "1", "-components",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "via queue-hashmap (strategy=hashmap adjoin=true, 2 threads)") {
		t.Fatalf("options not echoed: %q", s)
	}
	if !strings.Contains(s, "2-connected components (union-find):") {
		t.Fatalf("components line missing: %q", s)
	}
}

func TestSlinegraphErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-algo", "nope", "-preset", "rand1-mini"},
		{"-relabel", "desc", "-preset", "rand1-mini"}, // retired flags are unknown like any other
		{"-strategy", "nope", "-preset", "rand1-mini"},
		{"-schedule", "queue", "-preset", "rand1-mini"},
		{"-prune", "nope", "-preset", "rand1-mini"}, // retired like -relabel and -schedule
		{"-preset", "nope"},
		{"-in", "/nonexistent.mtx"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSlinegraphKernelAxesAgree: every -strategy, weighted or not, reports
// the naive edge count.
func TestSlinegraphKernelAxesAgree(t *testing.T) {
	edgeCount := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-preset", "rand1-mini", "-scale", "0.01", "-s", "2", "-reps", "1"}, args...), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := out.String()
		idx := strings.Index(s, " edges in")
		if idx < 0 {
			t.Fatalf("%v: no edge count in %q", args, s)
		}
		return s[strings.LastIndexByte(s[:idx], ' ')+1 : idx]
	}
	want := naiveEdgeCount(t)
	for _, strat := range []string{"auto", "hashmap", "dense", "intersection"} {
		if got := edgeCount("-strategy", strat); got != want {
			t.Fatalf("strategy=%s: %s edges, want %s", strat, got, want)
		}
		if got := edgeCount("-strategy", strat, "-weighted"); got != want {
			t.Fatalf("weighted strategy=%s: %s edges, want %s", strat, got, want)
		}
	}
}

func TestSlinegraphEchoesKernelAxes(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-preset", "rand1-mini", "-scale", "0.01", "-s", "2",
		"-strategy", "dense", "-weighted", "-reps", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "via weighted kernel (strategy=dense adjoin=false") {
		t.Fatalf("kernel axes not echoed: %q", s)
	}
}

func TestSlinegraphSSweep(t *testing.T) {
	prev := -1
	for _, s := range []int{1, 2, 4} {
		var out bytes.Buffer
		if err := run([]string{"-preset", "livejournal-mini", "-scale", "0.02", "-s", fmt.Sprint(s), "-reps", "1"}, &out); err != nil {
			t.Fatal(err)
		}
		str := out.String()
		idx := strings.Index(str, " edges in")
		start := strings.LastIndexByte(str[:idx], ' ')
		var n int
		fmt.Sscanf(str[start+1:idx], "%d", &n)
		if prev >= 0 && n > prev {
			t.Fatalf("edge count grew with s: %d -> %d", prev, n)
		}
		prev = n
	}
}
