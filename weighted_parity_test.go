package nwhy

import (
	"math"
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/graph"
	"nwhy/internal/sparse"
)

// overlapBrute is |e ∩ f| by a merge of the two sorted incidence lists.
func overlapBrute(h *core.Hypergraph, e, f uint32) int {
	a, b, c := h.EdgeIncidence(int(e)), h.EdgeIncidence(int(f)), 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c, i, j = c+1, i+1, j+1
		}
	}
	return c
}

// pairListWeightedGraph is the weighted line graph as the handle was built
// before the kernel kept a value column: both arcs of every canonical pair,
// weight 1/|e ∩ f|, through sparse.FromPairs — the reference the one-route
// build is compared against in process.
func pairListWeightedGraph(t *testing.T, h *core.Hypergraph, pairs []sparse.Edge) *graph.Graph {
	t.Helper()
	arcs, weights := make([]sparse.Edge, 0, 2*len(pairs)), make([]float64, 0, 2*len(pairs))
	for _, p := range pairs {
		w := 1.0 / float64(overlapBrute(h, p.U, p.V))
		arcs = append(arcs, p, sparse.Edge{U: p.V, V: p.U})
		weights = append(weights, w, w)
	}
	g, err := graph.FromCSR(sparse.FromPairs(h.NumEdges(), h.NumEdges(), arcs, weights))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWeightedAndEnsembleMatchPairListBuildOnPresets: on every internal/gen
// preset, for s = 1…4 at one, two and three workers, the weighted handle and
// every member of both ensembles hold the plain construction's pairs, every
// strength is the brute-force intersection size, the weighted view is the
// pair-list build's CSR value for value, and the weighted distances, paths
// and centralities are the ones that build gives.
func TestWeightedAndEnsembleMatchPairListBuildOnPresets(t *testing.T) {
	ss := []int{1, 2, 3, 4}
	for _, p := range gen.Presets() {
		h := p.Build(0.01)
		for workers := 1; workers <= 3; workers++ {
			eng := NewEngine(workers)
			g := Wrap(h).WithEngine(eng)
			ens, ensQ, ensAdj := g.SLineGraphEnsemble(ss, true), g.SLineGraphEnsembleQueue(ss, false), g.SLineGraphEnsembleQueue(ss, true)
			for _, s := range ss {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s s=%d workers=%d: "+format, append([]any{p.Name, s, workers}, args...)...)
				}
				plain := g.SLineGraph(s, true).Pairs()
				wl := g.SLineGraphWeighted(s)
				for name, l := range map[string]*SLineGraph{"ensemble": ens[s], "queue ensemble": ensQ[s], "adjoin ensemble": ensAdj[s]} {
					if l == nil || l.S != s || l.NumVertices() != h.NumEdges() || !slices.Equal(l.Pairs(), plain) {
						fail("the %s member differs from SLineGraph(s)", name)
					}
				}
				if !slices.Equal(wl.Pairs(), plain) {
					fail("the weighted handle's pairs differ from SLineGraph(s)")
				}
				for _, pr := range plain {
					if want := overlapBrute(h, pr.U, pr.V); wl.Strength(int(pr.U), int(pr.V)) != want || wl.Strength(int(pr.V), int(pr.U)) != want {
						fail("Strength(%d, %d) = %d, the intersection has %d", pr.U, pr.V, wl.Strength(int(pr.U), int(pr.V)), want)
					}
				}
				ref := pairListWeightedGraph(t, h, plain)
				if got, want := wl.WG.CSR(), ref.CSR(); !got.Equal(want) || !slices.Equal(got.Val, want.Val) {
					fail("the weighted view is not the pair-list build's CSR")
				}
				for _, src := range []int{0, h.NumEdges() / 2} {
					sssp := graph.DeltaStepping(eng, ref, src, 0)
					for _, dst := range []int{1, h.NumEdges() / 3, h.NumEdges() - 1} {
						if got, want := wl.SDistanceWeighted(src, dst), sssp.Dist[dst]; got != want && math.Abs(got-want) > 1e-12 {
							fail("SDistanceWeighted(%d, %d) = %v, the pair-list build gives %v", src, dst, got, want)
						}
						if got, want := wl.SPathWeighted(src, dst), sssp.PathTo(dst); !slices.Equal(got, want) {
							fail("SPathWeighted(%d, %d) = %v, the pair-list build gives %v", src, dst, got, want)
						}
					}
				}
				if (s+workers)%3 != 0 {
					continue // the all-pairs centralities are most of the test's time: one worker count per s, each count used
				}
				for name, c := range map[string][2][]float64{
					"betweenness":  {wl.SBetweennessCentralityWeighted(true), graph.WeightedBetweennessCentrality(eng, ref, true)},
					"closeness":    {wl.SClosenessCentralityWeighted(), graph.WeightedClosenessCentrality(eng, ref)},
					"harmonic":     {wl.SHarmonicClosenessCentralityWeighted(), graph.WeightedHarmonicCloseness(eng, ref)},
					"eccentricity": {wl.SEccentricityWeighted(), graph.WeightedEccentricity(eng, ref)},
				} {
					for e := range c[1] {
						if got, want := c[0][e], c[1][e]; got != want && !(math.Abs(got-want) <= 1e-12) {
							fail("weighted %s of %d = %v, the pair-list build gives %v", name, e, got, want)
						}
					}
				}
			}
			eng.Close()
		}
	}
}
