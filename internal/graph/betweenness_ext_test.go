package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/graph"
	"nwhy/internal/parallel"
	"nwhy/internal/smetrics"
	"nwhy/internal/sparse"
)

// lineGraph builds the s-line graph of h.
func lineGraph(tb testing.TB, eng *parallel.Engine, h *core.Hypergraph, s int) *graph.Graph {
	tb.Helper()
	lg, err := smetrics.Build(eng, h, s)
	if err != nil {
		tb.Fatal(err)
	}
	return lg.G
}

// TestBetweennessOnPresetsSameBitsAsParent holds BetweennessCentrality to
// the parent's routine on the s-line graphs the library exists for: bit for
// bit on one worker, whichever kernel the rule gives each component.
func TestBetweennessOnPresetsSameBitsAsParent(t *testing.T) {
	eng := parallel.NewEngine(1)
	defer eng.Close()
	matrices := 0
	for _, p := range gen.Presets() {
		h := p.Build(0.01)
		for s := 2; s <= 4; s++ {
			g := lineGraph(t, eng, h, s)
			want := graph.ParentBetweennessCentrality(eng, g, true)
			for v, got := range graph.BetweennessCentrality(eng, g, true) {
				if got != want[v] {
					t.Fatalf("%s s=%d: score[%d] = %v, parent's %v", p.Name, s, v, got, want[v])
				}
			}
			if nc, arcs := graph.LargestComponent(g); graph.MatrixPays(nc, arcs) {
				matrices++
			}
		}
	}
	if matrices < 12 {
		t.Fatalf("the rule took the matrix for the largest component of %d of 21 line graphs; the presets no longer exercise it", matrices)
	}
}

// TestCentralitiesOnPresetsSameBitsAsSweep holds closeness, harmonic
// closeness and eccentricity to the sweep-pinned call on the same s-line
// graphs, at one, two and three workers, whichever kernel the rule gives
// each component.
func TestCentralitiesOnPresetsSameBitsAsSweep(t *testing.T) {
	var engines []*parallel.Engine
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		defer eng.Close()
		engines = append(engines, eng)
	}
	matrices := 0
	for _, p := range gen.Presets() {
		h := p.Build(0.01)
		for s := 2; s <= 4; s++ {
			g := lineGraph(t, engines[0], h, s)
			wantClo, wantHarmonic, wantEcc := graph.CentralitiesWith(engines[0], g, "sparse")
			for _, eng := range engines {
				clo, harmonic, ecc := graph.ClosenessCentrality(eng, g), graph.HarmonicClosenessCentrality(eng, g), graph.Eccentricity(eng, g)
				for v := range wantClo {
					if clo[v] != wantClo[v] || harmonic[v] != wantHarmonic[v] || ecc[v] != wantEcc[v] {
						t.Fatalf("%s s=%d, %d workers: scores of %d = %v %v %v, the sweep's %v %v %v", p.Name, s, eng.NumWorkers(), v, clo[v], harmonic[v], ecc[v], wantClo[v], wantHarmonic[v], wantEcc[v])
					}
				}
			}
			if nc, arcs := graph.LargestComponent(g); graph.MatrixPays(nc, arcs) {
				matrices++
			}
		}
	}
	if matrices < 12 {
		t.Fatalf("the rule took the matrix for the largest component of %d of 21 line graphs; the presets no longer exercise it", matrices)
	}
}

// gnp is G(n, p) at the given mean degree.
func gnp(n, degree int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	p := float64(degree) / float64(n-1)
	el := sparse.NewEdgeList(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				el.Add(uint32(u), uint32(v))
			}
		}
	}
	return graph.FromEdgeList(el, true)
}

var benchSink []float64

// benchInput is one input of the crossover tables, built on the engine of
// the run.
type benchInput struct {
	name  string
	build func(eng *parallel.Engine) *graph.Graph
}

// crossoverInputs are the s-line graphs of the community shape of the
// batch-metrics workload, dense and shallow, and G(n, p) from far below to
// far above the density where the matrix's n*ceil(n/64) words equal the
// arcs.
func crossoverInputs(tb testing.TB) []benchInput {
	var inputs []benchInput
	for s := 2; s <= 4; s++ {
		inputs = append(inputs, benchInput{fmt.Sprintf("community/s=%d", s), func(eng *parallel.Engine) *graph.Graph {
			h := gen.Community(gen.CommunityConfig{NumEdges: 3000, NumNodes: 600, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20220530})
			return lineGraph(tb, eng, h, s)
		}})
	}
	for _, n := range []int{1000, 4000} {
		for _, degree := range []int{4, 16, 64, 128, 256} {
			inputs = append(inputs, benchInput{fmt.Sprintf("gnp/n=%d/degree=%d", n, degree), func(*parallel.Engine) *graph.Graph { return gnp(n, degree, int64(n+degree)) }})
		}
	}
	return inputs
}

// BenchmarkBetweenness is the crossover table behind graph.matrixPays
// (EXPERIMENTS.md, "s-betweenness on a bit matrix"): each of the
// crossoverInputs under the CSR walk and under the bit matrix, whatever the
// rule would pick. Run with -cpu 1,2; words/arc is the rule's quantity on
// the largest component (the rule takes the matrix up to 0.5), word-ops and
// dag-arcs what the matrix kernel did per call.
func BenchmarkBetweenness(b *testing.B) {
	for _, in := range crossoverInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			eng := parallel.NewEngine(0) // GOMAXPROCS workers: -cpu sets them
			defer eng.Close()
			g := in.build(eng)
			nc, arcs := graph.LargestComponent(g)
			for _, kernel := range []string{"sparse", "matrix"} {
				b.Run(kernel, func(b *testing.B) {
					graph.TakeBetweennessWork(eng)
					for i := 0; i < b.N; i++ {
						benchSink = graph.BetweennessWith(eng, g, true, kernel)
					}
					wordOps, dagArcs := graph.TakeBetweennessWork(eng)
					b.ReportMetric(float64(nc*((nc+63)/64))/float64(arcs), "words/arc")
					b.ReportMetric(float64(wordOps)/float64(b.N), "word-ops/op")
					b.ReportMetric(float64(dagArcs)/float64(b.N), "dag-arcs/op")
				})
			}
		})
	}
}

// BenchmarkLevelHistograms is the crossover table of the level histograms
// (EXPERIMENTS.md, "Level histograms on the bit matrix"): the
// crossoverInputs and the s-line graphs of serve-read's two datasets at s =
// 2..4, each under the 64-wide sweep, under the bit matrix and under the
// rule. Closeness, harmonic closeness and eccentricity are this one call
// and a per-source scoring. Run with -cpu 1,2; words/arc is the rule's
// quantity on the largest component, word-ops the matrix words the kernel
// read per call.
func BenchmarkLevelHistograms(b *testing.B) {
	inputs := crossoverInputs(b)
	for s := 2; s <= 4; s++ {
		inputs = append(inputs, benchInput{fmt.Sprintf("comm/s=%d", s), func(eng *parallel.Engine) *graph.Graph {
			h := gen.Community(gen.CommunityConfig{NumEdges: 6500, NumNodes: 1000, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20220530})
			return lineGraph(b, eng, h, s)
		}}, benchInput{fmt.Sprintf("contain/s=%d", s), func(eng *parallel.Engine) *graph.Graph {
			h := gen.Containment(gen.ContainmentConfig{NumBase: 1200, NumNodes: 8000, BaseSize: 24, SubsPerBase: 7, MemberSkew: 0.45, Seed: 20220530})
			return lineGraph(b, eng, h, s)
		}})
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			eng := parallel.NewEngine(0) // GOMAXPROCS workers: -cpu sets them
			defer eng.Close()
			g := in.build(eng)
			nc, arcs := graph.LargestComponent(g)
			for _, kernel := range []string{"sparse", "matrix", "rule"} {
				b.Run(kernel, func(b *testing.B) {
					graph.TakeLevelWork(eng)
					for i := 0; i < b.N; i++ {
						_, benchSink, _ = graph.CentralitiesWith(eng, g, kernel)
					}
					b.ReportMetric(float64(nc*((nc+63)/64))/float64(arcs), "words/arc")
					b.ReportMetric(float64(graph.TakeLevelWork(eng))/float64(b.N), "word-ops/op")
				})
			}
		})
	}
}
