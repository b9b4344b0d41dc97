// Command nwhy-bench regenerates the paper's evaluation: Table I (input
// characteristics) and Figures 7 (CC strong scaling), 8 (BFS strong
// scaling), and 9 (s-line-graph construction algorithm comparison), plus
// the ablation studies, on the synthetic Table I preset stand-ins.
//
// Usage:
//
//	nwhy-bench -exp table1 -scale 1
//	nwhy-bench -exp fig7 -threads 1,2,4 -reps 3
//	nwhy-bench -exp fig8
//	nwhy-bench -exp fig9 -s 1,2,4,8
//	nwhy-bench -exp ablation
//	nwhy-bench -exp all
//
// The end-to-end benchmark (workloads, oracle checks, per-layer metrics) is
// bench/, declared by BENCHMARK.json; this binary only reprints the paper's
// tables and figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nwhy-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table1 | fig7 | fig8 | fig9 | ablation | all")
		scale    = fs.Float64("scale", 0.5, "dataset scale factor")
		threads  = fs.String("threads", "", "comma-separated thread counts (default 1,2,..,max(4,GOMAXPROCS))")
		ss       = fs.String("s", "1,2,4,8", "comma-separated s values for fig9")
		reps     = fs.Int("reps", 3, "repetitions per measurement (min reported)")
		datasets = fs.String("datasets", "", "comma-separated preset names (default: all six)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	presets := gen.Presets()
	if *datasets != "" {
		var chosen []gen.Preset
		for _, name := range strings.Split(*datasets, ",") {
			p, err := gen.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			chosen = append(chosen, p)
		}
		presets = chosen
	}

	threadList, err := parseInts(*threads)
	if err != nil {
		return err
	}
	if threadList == nil {
		for t := 1; t <= max(runtime.GOMAXPROCS(0), 4); t *= 2 {
			threadList = append(threadList, t)
		}
	}
	sList, err := parseInts(*ss)
	if err != nil {
		return err
	}

	known := map[string]func(){
		"table1":   func() { table1(w, presets, *scale) },
		"fig7":     func() { fig7(w, presets, *scale, threadList, *reps) },
		"fig8":     func() { fig8(w, presets, *scale, threadList, *reps) },
		"fig9":     func() { fig9(w, presets, *scale, sList, *reps) },
		"ablation": func() { ablation(w, presets, *scale, *reps) },
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig7", "fig8", "fig9", "ablation"} {
			known[name]()
		}
		return nil
	}
	fn, ok := known[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fn()
	return nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// build materializes one preset with the facade handle.
func build(p gen.Preset, scale float64) *nwhy.NWHypergraph {
	return nwhy.Wrap(p.Build(scale))
}

// table1 prints the input characteristics of every preset — the Table I
// reproduction (at reduced scale; the ratios and skew match the paper).
func table1(w io.Writer, presets []gen.Preset, scale float64) {
	fmt.Fprintf(w, "== Table I: input characteristics (scale %.2f) ==\n", scale)
	fmt.Fprintf(w, "%-18s %10s %10s %8s %8s %9s %9s   %s\n",
		"hypergraph", "|V|", "|E|", "d̄v", "d̄e", "Δv", "Δe", "paper |V|/|E|")
	for _, p := range presets {
		st := core.ComputeStats(p.Build(scale))
		fmt.Fprintf(w, "%-18s %10d %10d %8.1f %8.1f %9d %9d   %s / %s\n",
			p.Name, st.NumNodes, st.NumEdges, st.AvgNodeDegree, st.AvgEdgeDegree,
			st.MaxNodeDegree, st.MaxEdgeDegree, p.PaperV, p.PaperE)
	}
	fmt.Fprintln(w)
}

// measure reports the minimum duration of fn over reps runs.
func measure(reps int, fn func()) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// fig7 prints the strong-scaling series of HyperCC, AdjoinCC, and the
// HygraCC baseline per dataset — one line per thread count, matching the
// Figure 7 panels.
func fig7(w io.Writer, presets []gen.Preset, scale float64, threads []int, reps int) {
	fmt.Fprintf(w, "== Figure 7: hypergraph connected components, strong scaling (scale %.2f) ==\n", scale)
	variants := []struct {
		name string
		v    nwhy.CCVariant
	}{
		{"HyperCC", nwhy.CCHyper},
		{"AdjoinCC", nwhy.CCAdjoinAfforest},
		{"HygraCC", nwhy.CCHygraBaseline},
	}
	for _, p := range presets {
		g := build(p, scale)
		g.Adjoin()
		fmt.Fprintf(w, "-- %s (|E|=%d |V|=%d) --\n", p.Name, g.NumEdges(), g.NumNodes())
		fmt.Fprintf(w, "%-8s", "threads")
		for _, v := range variants {
			fmt.Fprintf(w, "%14s", v.name)
		}
		fmt.Fprintln(w)
		for _, t := range threads {
			eng := nwhy.NewEngine(t)
			gt := g.WithEngine(eng)
			fmt.Fprintf(w, "%-8d", t)
			for _, v := range variants {
				d := measure(reps, func() { gt.ConnectedComponents(v.v) })
				fmt.Fprintf(w, "%14s", d.Round(time.Microsecond))
			}
			fmt.Fprintln(w)
			eng.Close()
		}
	}
	fmt.Fprintln(w)
}

// fig8 prints the strong-scaling series of HyperBFS, AdjoinBFS, and the
// HygraBFS baseline per dataset, sourced at the maximum-degree hyperedge —
// the Figure 8 panels.
func fig8(w io.Writer, presets []gen.Preset, scale float64, threads []int, reps int) {
	fmt.Fprintf(w, "== Figure 8: hypergraph BFS, strong scaling (scale %.2f) ==\n", scale)
	variants := []struct {
		name string
		v    nwhy.BFSVariant
	}{
		{"HyperBFS", nwhy.BFSTopDown},
		{"AdjoinBFS", nwhy.BFSAdjoin},
		{"HygraBFS", nwhy.BFSHygraBaseline},
	}
	for _, p := range presets {
		g := build(p, scale)
		g.Adjoin()
		src := maxDegreeEdge(g)
		reach := g.BFS(src, nwhy.BFSTopDown)
		fmt.Fprintf(w, "-- %s (|E|=%d |V|=%d, source e%d reaches %d edges + %d nodes) --\n",
			p.Name, g.NumEdges(), g.NumNodes(), src, reach.ReachedEdges(), reach.ReachedNodes())
		fmt.Fprintf(w, "%-8s", "threads")
		for _, v := range variants {
			fmt.Fprintf(w, "%14s", v.name)
		}
		fmt.Fprintln(w)
		for _, t := range threads {
			eng := nwhy.NewEngine(t)
			gt := g.WithEngine(eng)
			fmt.Fprintf(w, "%-8d", t)
			for _, v := range variants {
				d := measure(reps, func() { gt.BFS(src, v.v) })
				fmt.Fprintf(w, "%14s", d.Round(time.Microsecond))
			}
			fmt.Fprintln(w)
			eng.Close()
		}
	}
	fmt.Fprintln(w)
}

func maxDegreeEdge(g *nwhy.NWHypergraph) int {
	best, bestDeg := 0, -1
	for e := 0; e < g.NumEdges(); e++ {
		if d := g.EdgeDegree(e); d > bestDeg {
			best, bestDeg = e, d
		}
	}
	return best
}

// fig9 prints, per dataset and s, the construction time of the Intersection
// and Hashmap algorithms and the paper's queue-based Algorithms 1 and 2 —
// the four presets, which differ only in the counter they pin, so Hashmap
// and Algorithm 1, Intersection and Algorithm 2 are one value each by
// construction — normalized to Hashmap, matching the Figure 9 bars.
func fig9(w io.Writer, presets []gen.Preset, scale float64, sList []int, reps int) {
	fmt.Fprintf(w, "== Figure 9: s-line graph construction, runtime relative to Hashmap (scale %.2f) ==\n", scale)
	algos := []struct {
		name string
		o    nwhy.ConstructOptions
	}{
		{"Intersection", nwhy.PresetIntersection},
		{"Hashmap", nwhy.PresetHashmap},
		{"Alg1(queue)", nwhy.PresetAlgorithm1},
		{"Alg2(queue)", nwhy.PresetAlgorithm2},
	}
	for _, p := range presets {
		g := build(p, scale)
		fmt.Fprintf(w, "-- %s (|E|=%d |V|=%d) --\n", p.Name, g.NumEdges(), g.NumNodes())
		fmt.Fprintf(w, "%-4s", "s")
		for _, a := range algos {
			fmt.Fprintf(w, "%16s", a.name)
		}
		fmt.Fprintf(w, "%16s\n", "(Hashmap time)")
		for _, s := range sList {
			best := make([]time.Duration, len(algos))
			var edges int
			for i, a := range algos {
				best[i] = measure(reps, func() { edges = g.SLineGraphWith(s, true, a.o).NumEdges() })
			}
			hashmap := best[1]
			fmt.Fprintf(w, "%-4d", s)
			for i := range algos {
				fmt.Fprintf(w, "%15.2fx", float64(best[i])/float64(hashmap))
			}
			fmt.Fprintf(w, "%16s  (%d line edges)\n", hashmap.Round(time.Microsecond), edges)
		}
	}
	fmt.Fprintln(w)
}

// ablation prints the design-choice studies DESIGN.md calls out: queue
// input representation, and materialized vs direct s-connected components.
func ablation(w io.Writer, presets []gen.Preset, scale float64, reps int) {
	fmt.Fprintf(w, "== Ablations (scale %.2f) ==\n", scale)
	for _, p := range presets {
		g := build(p, scale)
		g.Adjoin()
		fmt.Fprintf(w, "-- %s (|E|=%d |V|=%d) --\n", p.Name, g.NumEdges(), g.NumNodes())
		row := func(name string, fn func()) {
			fmt.Fprintf(w, "  %-44s %12s\n", name, measure(reps, fn).Round(time.Microsecond))
		}
		onAdjoin := nwhy.PresetAlgorithm1
		onAdjoin.UseAdjoin = true
		row("alg1 s=2 input=bipartite", func() { g.SLineGraphWith(2, true, nwhy.PresetAlgorithm1) })
		row("alg1 s=2 input=adjoin", func() { g.SLineGraphWith(2, true, onAdjoin) })
		row("s-CC s=2 materialize-then-cc", func() {
			g.SLineGraphWith(2, true, nwhy.PresetAlgorithm1).SConnectedComponents()
		})
		row("s-CC s=2 direct-unionfind", func() {
			g.SConnectedComponents(2)
		})
	}
	fmt.Fprintln(w)
}
