// Command hygen generates synthetic hypergraph datasets — the Table I
// preset shapes or custom generator parameters — and writes them as Matrix
// Market incidence files consumable by the other tools and by Load.
//
// Usage:
//
//	hygen -preset rand1-mini -scale 0.5 -o rand1.mtx
//	hygen -gen uniform -edges 10000 -nodes 10000 -size 10 -o u.mtx
//	hygen -preset rand1-mini -o rand1.nwhyb          (binary snapshot)
//	hygen -gen community -edges 20000 -nodes 5000 -mean 12 -o c.mtx
//	hygen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/mmio"
	"nwhy/internal/sparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hygen", flag.ContinueOnError)
	var (
		presetName = fs.String("preset", "", "Table I preset name (overrides -gen)")
		scale      = fs.Float64("scale", 1.0, "preset scale factor")
		generator  = fs.String("gen", "uniform", "generator: uniform | community | bipartite | rmat")
		rmatA      = fs.Float64("rmat-a", 0.55, "rmat: probability of the (0,0) quadrant")
		ne         = fs.Int("edges", 10000, "number of hyperedges")
		nv         = fs.Int("nodes", 10000, "number of hypernodes")
		size       = fs.Int("size", 10, "uniform: exact hyperedge size")
		mean       = fs.Float64("mean", 10, "community: mean hyperedge size")
		sizeSkew   = fs.Float64("sizeskew", 1.5, "community: Zipf exponent of sizes")
		memberSkew = fs.Float64("memberskew", 0.5, "community: member-selection skew in [0,1)")
		m          = fs.Int("incidences", 100000, "bipartite: incidence count")
		skew       = fs.Float64("skew", 1.7, "bipartite: Zipf exponent")
		seed       = fs.Int64("seed", 42, "random seed")
		out        = fs.String("o", "", "output .mtx or .nwhyb path (default stdout, Matrix Market)")
		list       = fs.Bool("list", false, "list presets and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, p := range gen.Presets() {
			fmt.Fprintf(stdout, "%-20s mimics |V|=%s |E|=%s\n", p.Name, p.PaperV, p.PaperE)
		}
		return nil
	}

	var h *core.Hypergraph
	switch {
	case *presetName != "":
		p, err := gen.ByName(*presetName)
		if err != nil {
			return err
		}
		h = p.Build(*scale)
	case *generator == "uniform":
		h = gen.Uniform(*ne, *nv, *size, *seed)
	case *generator == "community":
		h = gen.Community(gen.CommunityConfig{
			NumEdges: *ne, NumNodes: *nv, MeanEdgeSize: *mean,
			SizeSkew: *sizeSkew, MemberSkew: *memberSkew, Seed: *seed,
		})
	case *generator == "bipartite":
		h = gen.BipartitePowerLaw(*ne, *nv, *m, *skew, *seed)
	case *generator == "rmat":
		h = gen.RMAT(*ne, *nv, *m, *rmatA, 0.5*(1-*rmatA), 0.25*(1-*rmatA), *seed)
	default:
		return fmt.Errorf("unknown generator %q", *generator)
	}

	write := func(w io.Writer) error {
		if strings.HasSuffix(*out, mmio.SnapshotExt) {
			// Binary snapshot of the incidence CSR: Load skips text
			// parsing, dedup, and CSR construction on the way back in.
			return mmio.WriteSnapshot(w, &mmio.Snapshot{CSR: h.Edges})
		}
		bel := sparse.NewBiEdgeList(h.NumEdges(), h.NumNodes())
		for e, nbrs := range h.EdgeRange() {
			for _, v := range nbrs {
				bel.Add(uint32(e), v)
			}
		}
		return mmio.WriteBiEdgeList(w, bel)
	}
	if *out == "" {
		return write(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := core.ComputeStats(h)
	fmt.Fprintf(stdout, "wrote %s: |E|=%d |V|=%d incidences=%d d̄v=%.1f d̄e=%.1f Δv=%d Δe=%d\n",
		*out, st.NumEdges, st.NumNodes, h.NumIncidences(),
		st.AvgNodeDegree, st.AvgEdgeDegree, st.MaxNodeDegree, st.MaxEdgeDegree)
	return nil
}
