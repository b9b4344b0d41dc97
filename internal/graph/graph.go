// Package graph is the NWGraph stand-in: a CSR adjacency representation and
// the suite of parallel graph algorithms that NWHy's approximate hypergraph
// analytics delegate to once a hypergraph has been projected to an s-line
// graph, clique expansion, or adjoin graph.
//
// Algorithms provided: breadth-first search (top-down, bottom-up, and
// direction-optimizing), connected components (label propagation and
// Afforest), single-source shortest paths (delta-stepping), betweenness
// centrality and closeness / harmonic closeness / eccentricity (per
// connected component, over an adjacency bit matrix where the component is
// dense and over the CSR rows elsewhere), PageRank, k-core decomposition and
// maximal independent sets.
package graph

import (
	"fmt"

	"nwhy/internal/sparse"
)

// Graph is a square adjacency structure. The undirected algorithms in this
// package assume the adjacency is symmetric (both directions stored); the
// constructors enforce or produce that.
type Graph struct {
	adj *sparse.CSR
	// Weights, when non-nil, alias adj.Val with one weight per stored arc.
}

// FromCSR wraps a square CSR as a Graph. It returns an error if the CSR is
// not square.
func FromCSR(c *sparse.CSR) (*Graph, error) {
	if c.NumRows() != c.NumCols() {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", c.NumRows(), c.NumCols())
	}
	return &Graph{adj: c}, nil
}

// FromEdgeList builds a graph from an edge list. When undirected is true the
// list is symmetrized (and deduplicated) first.
func FromEdgeList(el *sparse.EdgeList, undirected bool) *Graph {
	if undirected {
		cp := &sparse.EdgeList{NumVertices: el.NumVertices, Edges: append([]sparse.Edge(nil), el.Edges...)}
		cp.Symmetrize()
		el = cp
	}
	return &Graph{adj: sparse.FromEdgeList(el)}
}

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() int { return g.adj.NumRows() }

// NumArcs reports the number of stored directed arcs (2x the undirected edge
// count for symmetric graphs, self-loops counted once).
func (g *Graph) NumArcs() int { return g.adj.NumEdges() }

// Row returns vertex u's neighbor slice (sorted ascending; aliases storage).
func (g *Graph) Row(u int) []uint32 { return g.adj.Row(u) }

// NumRows makes Graph satisfy parallel.Adjacency.
func (g *Graph) NumRows() int { return g.adj.NumRows() }

// Degree reports vertex u's out-degree.
func (g *Graph) Degree(u int) int { return g.adj.Degree(u) }

// Degrees returns all degrees.
func (g *Graph) Degrees() []int { return g.adj.Degrees() }

// Weights returns the per-arc weight slice for vertex u, or nil when the
// graph is unweighted.
func (g *Graph) Weights(u int) []float64 { return g.adj.RowVal(u) }

// Weighted reports whether the graph carries arc weights.
func (g *Graph) Weighted() bool { return g.adj.Val != nil }

// CSR exposes the underlying adjacency (read-only by convention).
func (g *Graph) CSR() *sparse.CSR { return g.adj }

// HasEdge reports whether the arc (u, v) is stored.
func (g *Graph) HasEdge(u int, v uint32) bool { return g.adj.HasEntry(u, v) }

// IsSymmetric verifies that every stored arc has its reverse stored too.
func (g *Graph) IsSymmetric() bool {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Row(u) {
			if !g.HasEdge(int(v), uint32(u)) {
				return false
			}
		}
	}
	return true
}

// unreachable marks vertices a traversal never reached.
const unreachable = int32(-1)
