package core

import (
	"fmt"

	"nwhy/internal/graph"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// AdjoinGraph is the paper's adjoin representation of a hypergraph: the two
// separate index spaces are consolidated into one shared index space, making
// the hypergraph an ordinary (general) graph that any graph algorithm can
// process. Hyperedges occupy IDs [0, NumRealEdges); hypernodes occupy
// [NumRealEdges, NumRealEdges+NumRealNodes). Its adjacency matrix has the
// block anti-diagonal form [[0, Bᵗ], [B, 0]] where B is the incidence matrix
// of the hypergraph (Figure 4).
//
// Algorithms consuming an AdjoinGraph must be range-aware: they need
// NumRealEdges/NumRealNodes to know which part of the shared index set is
// which, and results are split back with SplitResult.
type AdjoinGraph struct {
	G            *graph.Graph
	NumRealEdges int
	NumRealNodes int
}

// Adjoin converts the bipartite representation into an adjoin graph: the
// vertex set is the direct sum of the hyperedge and hypernode index sets,
// and each incidence (e, v) becomes the undirected pair {e, NumRealEdges+v}.
// It is the one constructor of the adjoin form: files are read bipartite.
// The build runs on eng; a cancelled engine returns nil (callers check
// eng.Err()).
func Adjoin(eng *parallel.Engine, h *Hypergraph) *AdjoinGraph {
	ne, nv := h.NumEdges(), h.NumNodes()
	m := h.NumIncidences()
	pairs := make([]sparse.Edge, 2*m)
	eng.ForN(ne, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			base := h.Edges.RowPtr[e]
			for k, v := range h.Edges.Row(e) {
				i := base + int64(k)
				pairs[2*i] = sparse.Edge{U: uint32(e), V: uint32(ne) + v}
				pairs[2*i+1] = sparse.Edge{U: uint32(ne) + v, V: uint32(e)}
			}
		}
	})
	csr, err := sparse.FromPairsOn(eng, ne+nv, ne+nv, pairs, nil)
	if err != nil {
		return nil // only a cancelled engine fails: every pair is in range
	}
	g, err := graph.FromCSR(csr)
	if err != nil {
		panic("core: adjoin CSR not square: " + err.Error()) // impossible by construction
	}
	return &AdjoinGraph{G: g, NumRealEdges: ne, NumRealNodes: nv}
}

// NumVertices reports the size of the shared index space.
func (a *AdjoinGraph) NumVertices() int { return a.NumRealEdges + a.NumRealNodes }

// IsHyperedge reports whether shared-space ID id denotes a hyperedge.
func (a *AdjoinGraph) IsHyperedge(id int) bool { return id < a.NumRealEdges }

// EdgeID maps hyperedge e into the shared index space.
func (a *AdjoinGraph) EdgeID(e int) int { return e }

// NodeID maps hypernode v into the shared index space.
func (a *AdjoinGraph) NodeID(v int) int { return a.NumRealEdges + v }

// SplitResult splits a per-vertex result array computed on the adjoin graph
// back into the hyperedge part and the hypernode part.
func SplitResult[T any](a *AdjoinGraph, result []T) (edges, nodes []T) {
	return result[:a.NumRealEdges], result[a.NumRealEdges:]
}

// Validate checks the structural invariants of the adjoin form: the
// adjacency is symmetric and strictly bipartite between the hyperedge range
// and the hypernode range (the zero diagonal blocks of Figure 4).
func (a *AdjoinGraph) Validate() error {
	n := a.NumVertices()
	if a.G.NumVertices() != n {
		return fmt.Errorf("core: adjoin graph has %d vertices, expected %d", a.G.NumVertices(), n)
	}
	for u := 0; u < n; u++ {
		for _, v := range a.G.Row(u) {
			if a.IsHyperedge(u) == a.IsHyperedge(int(v)) {
				return fmt.Errorf("core: adjoin edge (%d,%d) inside one partition", u, v)
			}
		}
	}
	if !a.G.IsSymmetric() {
		return fmt.Errorf("core: adjoin graph not symmetric")
	}
	return nil
}
