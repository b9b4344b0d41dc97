// Command slinegraph constructs the s-line graph of a hypergraph under a
// chosen strategy / input configuration and reports the result size
// and construction time — the single-run counterpart of the Figure 9
// benchmark. -algo names one of the paper's four algorithms, each a preset
// pinning -strategy.
//
// Usage:
//
//	slinegraph -preset livejournal-mini -s 2 -algo queue-hashmap
//	slinegraph -in file.mtx -s 3 -algo intersection -adjoin
//	slinegraph -preset rand1-mini -s 2 -strategy dense -weighted
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nwhy"
	"nwhy/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slinegraph", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input .mtx or .nwhyb file")
		presetName = fs.String("preset", "", "generator preset instead of a file")
		scale      = fs.Float64("scale", 1.0, "preset scale factor")
		s          = fs.Int("s", 1, "overlap threshold s")
		algoName   = fs.String("algo", "", "paper preset, pins -strategy: hashmap | intersection | queue-hashmap (Alg 1) | queue-intersection (Alg 2)")
		strategy   = fs.String("strategy", "auto", "kernel overlap counter: auto | hashmap | dense | intersection")
		weighted   = fs.Bool("weighted", false, "retain exact overlap strengths (weighted s-line graph)")
		adjoin     = fs.Bool("adjoin", false, "feed the kernel the adjoin representation")
		threads    = fs.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		reps       = fs.Int("reps", 3, "repetitions (min time reported)")
		components = fs.Bool("components", false, "also report s-connected components (pruned union-find)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	strategies := map[string]nwhy.Strategy{
		"auto":         nwhy.StrategyAuto,
		"hashmap":      nwhy.StrategyHashmap,
		"dense":        nwhy.StrategyDense,
		"intersection": nwhy.StrategyIntersection,
	}
	strat, ok := strategies[*strategy]
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	var g *nwhy.NWHypergraph
	switch {
	case *presetName != "":
		p, err := gen.ByName(*presetName)
		if err != nil {
			return err
		}
		g = nwhy.Wrap(p.Build(*scale))
	case *in != "":
		var err error
		g, err = nwhy.Load(*in)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: slinegraph (-in file.mtx|file.nwhyb | -preset name) [-s N] [-algo A]")
	}

	if *threads > 0 {
		eng := nwhy.NewEngine(*threads)
		defer eng.Close()
		g = g.WithEngine(eng)
	}
	if *adjoin {
		g.Adjoin() // pre-build outside timing
	}

	opts, label := nwhy.ConstructOptions{Strategy: strat}, "kernel"
	if *algoName != "" {
		presets := map[string]nwhy.ConstructOptions{
			"hashmap":            nwhy.PresetHashmap,
			"intersection":       nwhy.PresetIntersection,
			"queue-hashmap":      nwhy.PresetAlgorithm1,
			"queue-intersection": nwhy.PresetAlgorithm2,
		}
		if opts, ok = presets[*algoName]; !ok {
			return fmt.Errorf("unknown algorithm %q", *algoName)
		}
		label = *algoName
	}
	opts.UseAdjoin = *adjoin
	best := time.Duration(1 << 62)
	var edges int
	for r := 0; r < *reps; r++ {
		t0 := time.Now()
		if *weighted {
			edges = g.SLineGraphWeightedWith(*s, opts).NumEdges()
		} else {
			edges = g.SLineGraphWith(*s, true, opts).NumEdges()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if *weighted {
		label = "weighted " + label
	}
	fmt.Fprintf(stdout, "input: |E|=%d |V|=%d incidences=%d\n", g.NumEdges(), g.NumNodes(), g.NumIncidences())
	fmt.Fprintf(stdout, "%d-line graph via %s (strategy=%s adjoin=%v, %d threads): %d edges in %v\n",
		*s, label, opts.Strategy, *adjoin, g.Engine().NumWorkers(), edges, best.Round(time.Microsecond))
	if *components {
		t0 := time.Now()
		labels := g.SConnectedComponents(*s)
		distinct := map[uint32]bool{}
		for _, c := range labels {
			distinct[c] = true
		}
		fmt.Fprintf(stdout, "%d-connected components (union-find): %d in %v\n",
			*s, len(distinct), time.Since(t0).Round(time.Microsecond))
	}
	return nil
}
