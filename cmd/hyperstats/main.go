// Command hyperstats prints the Table I characteristics row — |V|, |E|,
// mean degrees, max degrees — for a Matrix Market hypergraph file or a
// named preset, plus connectivity structure on request.
//
// Usage:
//
//	hyperstats file.mtx
//	hyperstats -preset web-mini -scale 0.5 -components -toplexes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
	fs := flag.NewFlagSet("hyperstats", flag.ContinueOnError)
	var (
		presetName = fs.String("preset", "", "use a generator preset instead of a file")
		scale      = fs.Float64("scale", 1.0, "preset scale factor")
		components = fs.Bool("components", false, "also compute connected components")
		toplexes   = fs.Bool("toplexes", false, "also count toplexes")
		scc        = fs.Int("scc", 0, "also compute s-connected components at this s (0 = off)")
		dists      = fs.Bool("dists", false, "also print degree distribution tails")
		snapOut    = fs.String("save-snapshot", "", "also write the loaded hypergraph as a .nwhyb snapshot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *nwhy.NWHypergraph
	var name string
	switch {
	case *presetName != "":
		p, err := gen.ByName(*presetName)
		if err != nil {
			return err
		}
		g = nwhy.Wrap(p.Build(*scale))
		name = *presetName
	case fs.NArg() == 1:
		var err error
		g, err = nwhy.Load(fs.Arg(0))
		if err != nil {
			return err
		}
		name = fs.Arg(0)
	default:
		return fmt.Errorf("usage: hyperstats [-preset name [-scale f]] [file.mtx|file.nwhyb]")
	}
	if *snapOut != "" {
		if err := g.SaveSnapshot(*snapOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *snapOut)
	}

	st := g.Stats()
	fmt.Fprintf(stdout, "%-14s %12s %12s %8s %8s %10s %10s\n",
		"input", "|V|", "|E|", "d̄v", "d̄e", "Δv", "Δe")
	fmt.Fprintf(stdout, "%-14s %12d %12d %8.1f %8.1f %10d %10d\n",
		name, st.NumNodes, st.NumEdges, st.AvgNodeDegree, st.AvgEdgeDegree,
		st.MaxNodeDegree, st.MaxEdgeDegree)

	if *components {
		cc := g.ConnectedComponents(nwhy.CCAdjoinAfforest)
		fmt.Fprintf(stdout, "connected components: %d\n", cc.NumComponents())
	}
	if *toplexes {
		// Served from the facade's epoch-keyed toplex cache; a following
		// -scc pass reuses the warm cache for its toplex-pruned kernel run.
		fmt.Fprintf(stdout, "toplexes: %d of %d hyperedges are maximal\n", len(g.Toplexes()), g.NumEdges())
	}
	if *scc > 0 {
		labels := g.SConnectedComponents(*scc)
		distinct := map[uint32]bool{}
		for _, c := range labels {
			distinct[c] = true
		}
		fmt.Fprintf(stdout, "%d-connected components: %d\n", *scc, len(distinct))
	}
	if *dists {
		printTail(stdout, "edge-size", g.EdgeSizeDist())
		printTail(stdout, "node-degree", g.NodeDegreeDist())
	}
	return nil
}

// printTail prints the non-zero head of a histogram plus its maximum.
func printTail(w io.Writer, label string, hist []int) {
	fmt.Fprintf(w, "%s distribution (d:count):", label)
	shown := 0
	for d, c := range hist {
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, " %d:%d", d, c)
		shown++
		if shown >= 8 {
			fmt.Fprintf(w, " ... max=%d", len(hist)-1)
			break
		}
	}
	fmt.Fprintln(w)
}
