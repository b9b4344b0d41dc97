// Package sparse provides the compressed sparse data structures underneath
// every hypergraph representation in NWHy-Go: edge lists, bipartite edge
// lists (the paper's biedgelist) and rectangular CSR incidence structures
// (the paper's biadjacency).
//
// The central design point, taken from the paper, is that hypergraph
// incidence matrices are rectangular: the hyperedge and hypernode index
// spaces are distinct and may have different sizes, so nothing here assumes
// square dimensions.
package sparse

import (
	"fmt"

	"nwhy/internal/parallel"
)

// Edge is one (source, target) pair. In a BiEdgeList, U indexes the first
// partition (hyperedges) and V the second (hypernodes); in a plain EdgeList
// both ends share one index space.
type Edge struct {
	U, V uint32
}

// EdgeList is a list of edges over a single index space of NumVertices
// vertices, the form consumed by general graph construction (adjoin graphs,
// s-line graphs, clique expansions).
type EdgeList struct {
	NumVertices int
	Edges       []Edge
}

// NewEdgeList creates an empty edge list over n vertices.
func NewEdgeList(n int) *EdgeList { return &EdgeList{NumVertices: n} }

// Add appends the edge (u, v), growing the vertex count if needed.
func (el *EdgeList) Add(u, v uint32) {
	el.Edges = append(el.Edges, Edge{u, v})
	if int(u) >= el.NumVertices {
		el.NumVertices = int(u) + 1
	}
	if int(v) >= el.NumVertices {
		el.NumVertices = int(v) + 1
	}
}

// Len reports the number of edges.
func (el *EdgeList) Len() int { return len(el.Edges) }

// Sort orders edges by (U, V) on the shared engine.
func (el *EdgeList) Sort() { sortEdgesOn(shared(), el.Edges) }

// SortOn is Sort scheduled on engine e's pool. A cancelled engine leaves the
// list a permutation of its input; callers detect the abort with e.Err().
func (el *EdgeList) SortOn(e *parallel.Engine) { sortEdgesOn(e, el.Edges) }

// Dedup removes duplicate edges. The list is sorted as a side effect.
func (el *EdgeList) Dedup() {
	el.Sort()
	el.Edges = dedupEdges(el.Edges)
}

// Symmetrize appends the reverse of every edge and removes duplicates, so
// the list represents an undirected graph with both directions materialized.
// Self-loops are kept (once).
func (el *EdgeList) Symmetrize() {
	n := len(el.Edges)
	for i := 0; i < n; i++ {
		e := el.Edges[i]
		if e.U != e.V {
			el.Edges = append(el.Edges, Edge{e.V, e.U})
		}
	}
	el.Dedup()
}

// RemoveSelfLoops drops edges with U == V.
func (el *EdgeList) RemoveSelfLoops() {
	out := el.Edges[:0]
	for _, e := range el.Edges {
		if e.U != e.V {
			out = append(out, e)
		}
	}
	el.Edges = out
}

// Validate checks that all endpoints are within the vertex range.
func (el *EdgeList) Validate() error {
	for i, e := range el.Edges {
		if int(e.U) >= el.NumVertices || int(e.V) >= el.NumVertices {
			return fmt.Errorf("sparse: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, el.NumVertices)
		}
	}
	return nil
}

// BiEdgeList is the paper's biedgelist (Listing 1): a list of incidences
// between two disjoint index spaces, N0 hyperedges and N1 hypernodes. Every
// edge has U in [0, N0) and V in [0, N1). Weights, if non-nil, align with
// Edges and carry one attribute per incidence.
type BiEdgeList struct {
	N0, N1  int
	Edges   []Edge
	Weights []float64
}

// NewBiEdgeList creates an empty bipartite edge list with the given
// partition cardinalities (the paper's vertex_cardinality_ array).
func NewBiEdgeList(n0, n1 int) *BiEdgeList { return &BiEdgeList{N0: n0, N1: n1} }

// Add appends the incidence (hyperedge e, hypernode v), growing the
// partition cardinalities as needed.
func (bel *BiEdgeList) Add(e, v uint32) {
	bel.Edges = append(bel.Edges, Edge{e, v})
	if int(e) >= bel.N0 {
		bel.N0 = int(e) + 1
	}
	if int(v) >= bel.N1 {
		bel.N1 = int(v) + 1
	}
}

// AddWeighted appends a weighted incidence. Mixing Add and AddWeighted on
// one list is invalid.
func (bel *BiEdgeList) AddWeighted(e, v uint32, w float64) {
	bel.Add(e, v)
	bel.Weights = append(bel.Weights, w)
}

// Len reports the number of incidences.
func (bel *BiEdgeList) Len() int { return len(bel.Edges) }

// NumVertices returns the cardinality of partition idx (0 = hyperedges,
// 1 = hypernodes), mirroring num_vertices(g, idx) in the paper's API.
func (bel *BiEdgeList) NumVertices(idx int) int {
	if idx == 0 {
		return bel.N0
	}
	return bel.N1
}

// Dedup removes duplicate incidences (keeping the first weight of each
// group when weights are present) on the shared engine. The list is sorted
// by (U, V).
func (bel *BiEdgeList) Dedup() {
	// The shared engine has no context, so the error is nil.
	_ = bel.DedupOn(shared())
}

// DedupOn is Dedup scheduled on engine e's pool, observing e's cancellation between radix passes. On cancellation the list
// is left a (possibly unsorted, weight-aligned) permutation of its input and
// e's error is returned.
func (bel *BiEdgeList) DedupOn(e *parallel.Engine) error {
	if len(bel.Edges) == 0 {
		return nil
	}
	if bel.Weights == nil {
		sortEdgesOn(e, bel.Edges)
		if err := e.Err(); err != nil {
			return err
		}
		bel.Edges = dedupEdges(bel.Edges)
		return nil
	}
	// Weighted: sort a permutation instead of the edges so weights follow.
	// The radix sort is stable, so the first occurrence of a duplicate group
	// stays first and the first-weight-wins rule below needs no tiebreak.
	idx := make([]int, len(bel.Edges))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) uint64 { return edgeKey(bel.Edges[i]) }
	parallel.RadixSort64On(e, idx, key)
	if err := e.Err(); err != nil {
		return err
	}
	edges := make([]Edge, 0, len(bel.Edges))
	weights := make([]float64, 0, len(bel.Weights))
	for k, i := range idx {
		if k > 0 && bel.Edges[i] == edges[len(edges)-1] {
			continue
		}
		edges = append(edges, bel.Edges[i])
		weights = append(weights, bel.Weights[i])
	}
	bel.Edges = edges
	bel.Weights = weights
	return nil
}

// Validate checks all incidences are inside the declared partitions.
func (bel *BiEdgeList) Validate() error {
	if bel.Weights != nil && len(bel.Weights) != len(bel.Edges) {
		return fmt.Errorf("sparse: %d weights for %d edges", len(bel.Weights), len(bel.Edges))
	}
	for i, e := range bel.Edges {
		if int(e.U) >= bel.N0 {
			return fmt.Errorf("sparse: incidence %d hyperedge %d out of range [0,%d)", i, e.U, bel.N0)
		}
		if int(e.V) >= bel.N1 {
			return fmt.Errorf("sparse: incidence %d hypernode %d out of range [0,%d)", i, e.V, bel.N1)
		}
	}
	return nil
}

// edgeKey packs an edge into the radix key ordering (U, V) pairs: U in the
// high 32 bits, V in the low.
func edgeKey(e Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// sortEdgesOn orders edges by (U, V) with the parallel LSD radix sort, after
// a cheap sortedness scan so already-canonical inputs (snapshot loads,
// pre-sorted files) skip the passes entirely.
func sortEdgesOn(e *parallel.Engine, edges []Edge) {
	sorted := true
	for i := 1; i < len(edges); i++ {
		if edgeKey(edges[i-1]) > edgeKey(edges[i]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	parallel.RadixSort64On(e, edges, edgeKey)
}

func dedupEdges(edges []Edge) []Edge {
	out := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}
