package nwhy

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out
// (representation fed to the queue algorithms, direct components).
// `go test -bench=.` regenerates every series at a reduced dataset scale;
// cmd/nwhy-bench prints the same data formatted like the paper's
// tables/plots and sweeps thread counts.

import (
	"fmt"
	"sync"
	"testing"

	"nwhy/internal/gen"
)

// benchScale keeps the full benchmark sweep tractable on a laptop while
// preserving every dataset's Table I shape.
const benchScale = 0.1

var (
	benchCache   = map[string]*NWHypergraph{}
	benchCacheMu sync.Mutex
)

func benchHypergraph(b *testing.B, preset string) *NWHypergraph {
	b.Helper()
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if g, ok := benchCache[preset]; ok {
		return g
	}
	p, err := gen.ByName(preset)
	if err != nil {
		b.Fatal(err)
	}
	g := Wrap(p.Build(benchScale))
	g.Adjoin() // pre-build so representation conversion is outside timings
	benchCache[preset] = g
	return g
}

var benchPresets = []string{
	"com-orkut-mini", "friendster-mini", "orkut-group-mini",
	"livejournal-mini", "web-mini", "rand1-mini",
}

// BenchmarkTable1Stats regenerates Table I: the characteristics computation
// (degree scans and maxima) per dataset.
func BenchmarkTable1Stats(b *testing.B) {
	for _, preset := range benchPresets {
		g := benchHypergraph(b, preset)
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := g.Stats()
				if st.NumEdges == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// BenchmarkFig7CC regenerates Figure 7: hypergraph connected components via
// the bipartite representation (HyperCC), the adjoin representation
// (AdjoinCC = Afforest), and the Hygra label-propagation baseline.
func BenchmarkFig7CC(b *testing.B) {
	variants := []struct {
		name string
		v    CCVariant
	}{
		{"HyperCC", CCHyper},
		{"AdjoinCC", CCAdjoinAfforest},
		{"HygraCC", CCHygraBaseline},
	}
	for _, preset := range benchPresets {
		g := benchHypergraph(b, preset)
		for _, v := range variants {
			b.Run(preset+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := g.ConnectedComponents(v.v)
					if len(r.EdgeComp) != g.NumEdges() {
						b.Fatal("bad result")
					}
				}
			})
		}
	}
}

// BenchmarkFig8BFS regenerates Figure 8: hypergraph BFS via top-down on the
// bipartite representation (HyperBFS), direction-optimizing on the adjoin
// representation (AdjoinBFS), and the Hygra top-down baseline, sourced at
// the maximum-degree hyperedge.
func BenchmarkFig8BFS(b *testing.B) {
	variants := []struct {
		name string
		v    BFSVariant
	}{
		{"HyperBFS", BFSTopDown},
		{"AdjoinBFS", BFSAdjoin},
		{"HygraBFS", BFSHygraBaseline},
	}
	for _, preset := range benchPresets {
		g := benchHypergraph(b, preset)
		src := 0
		for e := 1; e < g.NumEdges(); e++ {
			if g.EdgeDegree(e) > g.EdgeDegree(src) {
				src = e
			}
		}
		for _, v := range variants {
			b.Run(preset+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := g.BFS(src, v.v)
					if r.EdgeLevel[src] != 0 {
						b.Fatal("bad result")
					}
				}
			})
		}
	}
}

// BenchmarkFig9SLine regenerates Figure 9: s-line-graph construction with
// the non-queue Intersection and Hashmap algorithms and the paper's
// queue-based Algorithms 1 and 2, for s in {1, 2, 4, 8}. Alg1 and Hashmap,
// Alg2 and Intersection are one preset value each, so each pair's ns/op
// agree up to noise.
func BenchmarkFig9SLine(b *testing.B) {
	algos := []struct {
		name string
		o    ConstructOptions
	}{
		{"Intersection", PresetIntersection},
		{"Hashmap", PresetHashmap},
		{"Alg1-queue", PresetAlgorithm1},
		{"Alg2-queue", PresetAlgorithm2},
	}
	for _, preset := range benchPresets {
		g := benchHypergraph(b, preset)
		for _, s := range []int{1, 2, 4, 8} {
			for _, a := range algos {
				b.Run(fmt.Sprintf("%s/s=%d/%s", preset, s, a.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						lg := g.SLineGraphWith(s, true, a.o)
						_ = lg.NumEdges()
					}
				})
			}
		}
	}
}

// BenchmarkAblationQueueInput compares Algorithm 1 fed the bipartite vs the
// adjoin representation: the versatility the paper claims for the
// queue-based algorithms, at (per the paper) similar cost.
func BenchmarkAblationQueueInput(b *testing.B) {
	g := benchHypergraph(b, "com-orkut-mini")
	for _, adjoin := range []bool{false, true} {
		name := "bipartite"
		if adjoin {
			name = "adjoin"
		}
		b.Run(name, func(b *testing.B) {
			o := PresetAlgorithm1
			o.UseAdjoin = adjoin
			for i := 0; i < b.N; i++ {
				g.SLineGraphWith(2, true, o)
			}
		})
	}
}

// BenchmarkAblationAdjoinCC compares the two graph CC kernels on the adjoin
// representation (Afforest vs label propagation).
func BenchmarkAblationAdjoinCC(b *testing.B) {
	g := benchHypergraph(b, "rand1-mini")
	for _, v := range []struct {
		name string
		v    CCVariant
	}{{"afforest", CCAdjoinAfforest}, {"labelprop", CCAdjoinLabelProp}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.ConnectedComponents(v.v)
			}
		})
	}
}

// BenchmarkAblationDirectComponents compares s-connected components via the
// materialized s-line graph against the direct union-find-during-
// construction path.
func BenchmarkAblationDirectComponents(b *testing.B) {
	g := benchHypergraph(b, "com-orkut-mini")
	b.Run("materialize-then-cc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg := g.SLineGraphWith(2, true, PresetAlgorithm1)
			_ = lg.SConnectedComponents()
		}
	})
	b.Run("direct-unionfind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.SConnectedComponents(2)
		}
	})
}

// BenchmarkToplexes measures Algorithm 3 on a containment-rich input.
func BenchmarkToplexes(b *testing.B) {
	g := benchHypergraph(b, "friendster-mini")
	b.Run("friendster-mini", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(g.Toplexes()) == 0 {
				b.Fatal("no toplexes")
			}
		}
	})
}

// BenchmarkCliqueExpansion measures the clique-expansion construction
// (Listing 2's fourth representation).
func BenchmarkCliqueExpansion(b *testing.B) {
	g := benchHypergraph(b, "web-mini")
	b.Run("web-mini", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.CliqueExpansion()
		}
	})
}

// BenchmarkEnsemble measures the one-pass multi-s construction against
// running the hashmap algorithm once per s.
func BenchmarkEnsemble(b *testing.B) {
	g := benchHypergraph(b, "livejournal-mini")
	ss := []int{1, 2, 4, 8}
	b.Run("ensemble-one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.SLineGraphEnsemble(ss, true)
		}
	})
	b.Run("separate-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range ss {
				_ = g.SLineGraphWith(s, true, PresetHashmap)
			}
		}
	})
}

// BenchmarkSLineGraphWeighted pairs the weighted handle with the plain
// handle of the same graph (s = 1): what the value column and the weighted
// view cost on top of the one route.
func BenchmarkSLineGraphWeighted(b *testing.B) {
	for _, preset := range []string{"livejournal-mini", "com-orkut-mini", "web-mini"} {
		g := benchHypergraph(b, preset)
		b.Run(preset+"/weighted", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.SLineGraphWeighted(1)
			}
		})
		b.Run(preset+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.SLineGraph(1, true)
			}
		})
	}
}
