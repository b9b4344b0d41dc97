package slinegraph

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// Naive computes the s-line graph by set-intersecting every hyperedge pair:
// the O(|E|² · Δ) baseline every other algorithm is measured against.
func Naive(eng *parallel.Engine, h *core.Hypergraph, s int) ([]sparse.Edge, error) {
	ne := h.NumEdges()
	tls := parallel.NewTLSFor(eng, func() []sparse.Edge { return nil })
	eng.ForN(ne, func(w, lo, hi int) {
		buf := tls.Get(w)
		for i := lo; i < hi; i++ {
			if h.EdgeDegree(i) < s {
				continue
			}
			ri := h.EdgeIncidence(i)
			for j := i + 1; j < ne; j++ {
				if h.EdgeDegree(j) < s {
					continue
				}
				if _, ok := countCommonGE(ri, h.EdgeIncidence(j), s); ok {
					*buf = append(*buf, sparse.Edge{U: uint32(i), V: uint32(j)})
				}
			}
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return canonPairs(eng, parallel.FlattenTLS(nil, tls, nil)), nil
}

// CliqueExpansion computes the clique-expansion graph of h: each hyperedge
// becomes a clique over its hypernodes. Per the paper, this is exactly the
// 1-line graph of the dual hypergraph (Listing 2's
// to_two_graph_hashmap_cyclic(hypernodes, hyperedges, ..., 1, ...)). Vertex
// IDs of the result are hypernode IDs.
func CliqueExpansion(eng *parallel.Engine, h *core.Hypergraph, o Options) ([]sparse.Edge, error) {
	o.Counter = HashmapCounter
	return Construct(eng, FromHypergraph(h.Dual()), 1, o)
}
