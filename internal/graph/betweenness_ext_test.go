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

// BenchmarkBetweenness is the crossover table behind graph.matrixPays
// (EXPERIMENTS.md, "s-betweenness on a bit matrix"): each input under the
// CSR walk and under the bit matrix, whatever the rule would pick. Inputs
// are the s-line graphs of the community shape of the batch-metrics
// workload, dense and shallow, and G(n, p) from far below to far above the
// density where the matrix's n*ceil(n/64) words equal the arcs. Run with
// -cpu 1,2; words/arc is the rule's quantity on the largest component (the
// rule takes the matrix up to 0.5), word-ops and dag-arcs what the matrix
// kernel did per call.
func BenchmarkBetweenness(b *testing.B) {
	type input struct {
		name  string
		build func(eng *parallel.Engine) *graph.Graph
	}
	var inputs []input
	for s := 2; s <= 4; s++ {
		inputs = append(inputs, input{fmt.Sprintf("community/s=%d", s), func(eng *parallel.Engine) *graph.Graph {
			h := gen.Community(gen.CommunityConfig{NumEdges: 3000, NumNodes: 600, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20220530})
			return lineGraph(b, eng, h, s)
		}})
	}
	for _, n := range []int{1000, 4000} {
		for _, degree := range []int{4, 16, 64, 128, 256} {
			inputs = append(inputs, input{fmt.Sprintf("gnp/n=%d/degree=%d", n, degree), func(*parallel.Engine) *graph.Graph { return gnp(n, degree, int64(n+degree)) }})
		}
	}
	for _, in := range inputs {
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
