package smetrics

import (
	"slices"

	"nwhy/internal/core"
	"nwhy/internal/graph"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// WeightedSLineGraph extends SLineGraph with the overlap strengths of
// Figure 5: each s-line edge knows |e ∩ f|, and a strength-weighted view
// (arc weight 1/overlap) supports distances that prefer strong overlaps.
// The embedded handle's G, WG and the strengths are three views of one
// RowPtr/Col pair.
type WeightedSLineGraph struct {
	*SLineGraph
	// WG is the weighted line graph (arc weight = 1/overlap).
	WG *graph.Graph

	overlap *sparse.CSR // the adjacency with Val = |e ∩ f|
}

// BuildWeightedCSR wraps an already-assembled overlap-weighted symmetric
// s-line adjacency (from slinegraph.ConstructWeightedCSR), binding eng for
// the s-metric queries, weighted and not.
func BuildWeightedCSR(eng *parallel.Engine, h *core.Hypergraph, s int, csr *sparse.CSR) (*WeightedSLineGraph, error) {
	plain, inverse := *csr, *csr
	plain.Val, inverse.Val = nil, make([]float64, len(csr.Val))
	eng.ForN(len(csr.Val), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			inverse.Val[k] = 1 / csr.Val[k]
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	l, err := BuildCSR(eng, h, s, &plain)
	if err != nil {
		return nil, err
	}
	wg, err := graph.FromCSR(&inverse)
	if err != nil {
		return nil, err
	}
	return &WeightedSLineGraph{SLineGraph: l, WG: wg, overlap: csr}, nil
}

// WithEngine returns a shallow copy of the handle (weighted view included)
// bound to eng — the hook the facade uses to attach a context-carrying
// engine for one call chain.
func (l *WeightedSLineGraph) WithEngine(eng *parallel.Engine) *WeightedSLineGraph {
	c := *l
	c.SLineGraph = l.SLineGraph.WithEngine(eng)
	return &c
}

// Strength reports |e ∩ f| for an s-line edge, or 0 if the pair is not
// s-incident: a binary search in row e.
func (l *WeightedSLineGraph) Strength(e, f int) int {
	if e < 0 || e >= l.NumVertices() {
		return 0
	}
	if k, ok := slices.BinarySearch(l.overlap.Row(e), uint32(f)); ok {
		return int(l.overlap.RowVal(e)[k])
	}
	return 0
}

// SDistanceWeighted reports the strength-weighted s-distance between two
// hyperedges: the minimum over s-walks of the sum of 1/overlap along the
// walk. Returns +Inf when unreachable.
func (l *WeightedSLineGraph) SDistanceWeighted(src, dst int) float64 {
	r := graph.DeltaStepping(l.eng, l.WG, src, 0)
	return r.Dist[dst]
}

// SPathWeighted returns the minimum strength-weighted s-walk, or nil.
func (l *WeightedSLineGraph) SPathWeighted(src, dst int) []uint32 {
	r := graph.DeltaStepping(l.eng, l.WG, src, 0)
	return r.PathTo(dst)
}

// SBetweennessCentralityWeighted computes betweenness centrality over
// strength-weighted s-walks (Dijkstra-based Brandes on the weighted line
// graph): hyperedges bridging strong-overlap chains score highest.
func (l *WeightedSLineGraph) SBetweennessCentralityWeighted(normalized bool) []float64 {
	return graph.WeightedBetweennessCentrality(l.eng, l.WG, normalized)
}

// SClosenessCentralityWeighted computes closeness over strength-weighted
// s-walks.
func (l *WeightedSLineGraph) SClosenessCentralityWeighted() []float64 {
	return graph.WeightedClosenessCentrality(l.eng, l.WG)
}

// SHarmonicClosenessCentralityWeighted computes harmonic closeness over
// strength-weighted s-walks.
func (l *WeightedSLineGraph) SHarmonicClosenessCentralityWeighted() []float64 {
	return graph.WeightedHarmonicCloseness(l.eng, l.WG)
}

// SEccentricityWeighted computes eccentricity over strength-weighted
// s-walks.
func (l *WeightedSLineGraph) SEccentricityWeighted() []float64 {
	return graph.WeightedEccentricity(l.eng, l.WG)
}
