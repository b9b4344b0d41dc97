package slinegraph

import (
	"nwhy/internal/graph"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// WeightedPair is one s-line edge together with its strength: the exact
// overlap |e ∩ f|. Figure 5 of the paper draws s-line edges with width
// proportional to this strength; keeping it enables strength-weighted
// s-metrics (e.g. distances where strongly-overlapping hyperedges are
// closer).
//
// The weighted constructions are the kernel's exact-count emit mode — the
// same construct body as the unweighted ones, so there is no duplicated
// counting or drain loop here.
type WeightedPair struct {
	U, V    uint32
	Overlap int
}

// canonWeighted normalizes weighted pairs: U < V, sorted, deduplicated.
func canonWeighted(eng *parallel.Engine, pairs []WeightedPair) []WeightedPair {
	for i, e := range pairs {
		if e.U > e.V {
			pairs[i].U, pairs[i].V = e.V, e.U
		}
	}
	parallel.RadixSort64On(eng, pairs, func(p WeightedPair) uint64 {
		return uint64(p.U)<<32 | uint64(p.V)
	})
	out := pairs[:0]
	for i, e := range pairs {
		if i > 0 && e.U == pairs[i-1].U && e.V == pairs[i-1].V {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Unweight drops the strengths, producing a canonical plain pair list
// (nil for an empty input, matching the unweighted constructions).
func Unweight(pairs []WeightedPair) []sparse.Edge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]sparse.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = sparse.Edge{U: p.U, V: p.V}
	}
	return out
}

// ToWeightedLineGraph materializes a weighted s-line graph: each arc carries
// weight 1/overlap, so shortest paths prefer strongly-overlapping hyperedge
// chains (strength-weighted s-distance).
func ToWeightedLineGraph(idSpace int, pairs []WeightedPair) *graph.Graph {
	arcs := make([]sparse.Edge, 0, 2*len(pairs))
	weights := make([]float64, 0, 2*len(pairs))
	for _, p := range pairs {
		w := 1.0 / float64(p.Overlap)
		arcs = append(arcs, sparse.Edge{U: p.U, V: p.V}, sparse.Edge{U: p.V, V: p.U})
		weights = append(weights, w, w)
	}
	csr := sparse.FromPairs(idSpace, idSpace, arcs, weights)
	g, err := graph.FromCSR(csr)
	if err != nil {
		panic("slinegraph: weighted line graph not square: " + err.Error())
	}
	return g
}
