// Package smetrics implements NWHy's approximate hypergraph analytics: the
// s-metrics of Aksoy et al. computed on s-line graphs. An s-walk is a walk
// on the s-line graph; every metric here (s-connected components,
// s-distance, s-path, s-betweenness, s-closeness, s-harmonic closeness,
// s-eccentricity) is the corresponding graph metric evaluated on the s-line
// graph, whose vertices are the hyperedges of the original hypergraph.
package smetrics

import (
	"math"
	"sync"

	"nwhy/internal/core"
	"nwhy/internal/graph"
	"nwhy/internal/parallel"
	"nwhy/internal/slinegraph"
	"nwhy/internal/sparse"
)

// SLineGraph is a materialized s-line graph of a hypergraph, the object the
// s-metric queries run against (the Go analogue of the Python API's
// hg.s_linegraph(s) handle).
type SLineGraph struct {
	// S is the overlap threshold the graph was built with.
	S int
	// G is the line graph: vertex e is hyperedge e of the source hypergraph.
	G *graph.Graph

	// pairs lazily materializes the canonical edge list from G. It is a
	// shared pointer (not an inline sync.Once) so WithEngine's shallow copy
	// neither copies a lock nor recomputes the list.
	pairs *pairsBox

	h   *core.Hypergraph
	eng *parallel.Engine
}

// pairsBox holds the lazily-extracted canonical s-line edge list, shared
// across every WithEngine copy of a handle.
type pairsBox struct {
	once sync.Once
	list []sparse.Edge
}

// Build constructs the s-line graph of h on eng with the kernel's zero
// options, assembling the adjacency CSR directly from the kernel's
// per-worker buffers — the default path never materializes a global edge
// list (Pairs extracts one lazily on demand). The handle binds eng: every
// subsequent s-metric query schedules on it and observes its context.
func Build(eng *parallel.Engine, h *core.Hypergraph, s int) (*SLineGraph, error) {
	csr, err := slinegraph.ConstructCSR(eng, slinegraph.FromHypergraph(h), s, slinegraph.Options{})
	if err != nil {
		return nil, err
	}
	return BuildCSR(eng, h, s, csr)
}

// BuildCSR wraps an already-assembled symmetric s-line adjacency (from
// slinegraph.ConstructCSR), binding eng for the s-metric queries.
func BuildCSR(eng *parallel.Engine, h *core.Hypergraph, s int, csr *sparse.CSR) (*SLineGraph, error) {
	g, err := graph.FromCSR(csr)
	if err != nil {
		return nil, err
	}
	return &SLineGraph{
		S:     s,
		G:     g,
		pairs: &pairsBox{},
		h:     h,
		eng:   eng,
	}, nil
}

// Pairs returns the canonical s-line edge list (U < V, sorted), extracted
// from the adjacency on first call: rows are sorted, so walking the upper
// triangle yields canonical order directly.
func (l *SLineGraph) Pairs() []sparse.Edge {
	l.pairs.once.Do(func() { l.pairs.list = l.G.CSR().UpperTriangle() })
	return l.pairs.list
}

// Engine returns the engine the handle's queries run on.
func (l *SLineGraph) Engine() *parallel.Engine { return l.eng }

// WithEngine returns a shallow copy of the handle bound to eng — the hook
// the facade uses to attach a context-carrying engine for one call chain.
func (l *SLineGraph) WithEngine(eng *parallel.Engine) *SLineGraph {
	c := *l
	c.eng = eng
	return &c
}

// NumVertices reports the number of line-graph vertices (= hyperedges of h).
func (l *SLineGraph) NumVertices() int { return l.G.NumVertices() }

// NumEdges reports the number of s-line edges (each stored as two arcs of
// the symmetric adjacency).
func (l *SLineGraph) NumEdges() int { return l.G.NumArcs() / 2 }

// SDegree reports hyperedge e's s-degree: the number of hyperedges sharing
// at least s hypernodes with it.
func (l *SLineGraph) SDegree(e int) int { return l.G.Degree(e) }

// SNeighbors returns the hyperedges s-adjacent to e.
func (l *SLineGraph) SNeighbors(e int) []uint32 { return l.G.Row(e) }

// Eligible reports whether hyperedge e can participate in s-walks at all
// (|e| >= s); smaller hyperedges are inert vertices of the line graph.
func (l *SLineGraph) Eligible(e int) bool { return l.h.EdgeDegree(e) >= l.S }

// SConnectedComponents labels every hyperedge with its s-component
// (canonical minimum-member labels). Hyperedges with no s-neighbors are
// singleton components.
func (l *SLineGraph) SConnectedComponents() []uint32 {
	return graph.CanonicalizeComponents(graph.CCAfforest(l.eng, l.G))
}

// IsSConnected reports whether all eligible hyperedges form a single
// s-connected component (vacuously false when no hyperedge is eligible).
func (l *SLineGraph) IsSConnected() bool {
	comp := l.SConnectedComponents()
	label := uint32(math.MaxUint32)
	any := false
	for e := 0; e < l.NumVertices(); e++ {
		if !l.Eligible(e) {
			continue
		}
		if !any {
			label = comp[e]
			any = true
		} else if comp[e] != label {
			return false
		}
	}
	return any
}

// SDistance reports the s-walk length between hyperedges src and dst: the
// hop distance in the s-line graph, or -1 if no s-walk connects them. A point
// query: graph.ShortestPath searches from both ends, not the whole line graph.
func (l *SLineGraph) SDistance(src, dst int) int {
	return len(l.SPath(src, dst)) - 1
}

// SPath returns one shortest s-walk from src to dst as a hyperedge ID
// sequence (inclusive), or nil if none exists.
func (l *SLineGraph) SPath(src, dst int) []uint32 {
	return graph.ShortestPath(l.eng, l.G, src, dst)
}

// SBetweennessCentrality computes betweenness centrality of every hyperedge
// over s-walks.
func (l *SLineGraph) SBetweennessCentrality(normalized bool) []float64 {
	return graph.BetweennessCentrality(l.eng, l.G, normalized)
}

// SClosenessCentrality computes closeness centrality over s-walks for every
// hyperedge.
func (l *SLineGraph) SClosenessCentrality() []float64 {
	return graph.ClosenessCentrality(l.eng, l.G)
}

// SClosenessCentralityOf computes one hyperedge's s-closeness (one BFS, not
// the all-hyperedges sweep).
func (l *SLineGraph) SClosenessCentralityOf(e int) float64 {
	return graph.ClosenessCentralityOf(l.G, e)
}

// SHarmonicClosenessCentrality computes harmonic closeness over s-walks.
func (l *SLineGraph) SHarmonicClosenessCentrality() []float64 {
	return graph.HarmonicClosenessCentrality(l.eng, l.G)
}

// SEccentricity computes every hyperedge's s-eccentricity: the longest
// shortest s-walk from it.
func (l *SLineGraph) SEccentricity() []float64 {
	return graph.Eccentricity(l.eng, l.G)
}

// SEccentricityOf computes one hyperedge's s-eccentricity.
func (l *SLineGraph) SEccentricityOf(e int) float64 {
	return graph.EccentricityOf(l.G, e)
}

// SDiameter reports the largest finite s-eccentricity (the diameter of the
// largest-diameter s-component).
func (l *SLineGraph) SDiameter() float64 {
	d := 0.0
	for _, e := range l.SEccentricity() {
		if e > d {
			d = e
		}
	}
	return d
}

// SPageRank runs PageRank on the s-line graph.
func (l *SLineGraph) SPageRank(damping, tol float64, maxIter int) []float64 {
	return graph.PageRank(l.eng, l.G, damping, tol, maxIter)
}

// SCoreness computes k-core numbers on the s-line graph.
func (l *SLineGraph) SCoreness() []int {
	return graph.Coreness(l.G)
}

// SMaximalIndependentSet computes a maximal set of pairwise non-s-adjacent
// hyperedges (Luby's algorithm on the s-line graph).
func (l *SLineGraph) SMaximalIndependentSet(seed int64) []bool {
	return graph.MaximalIndependentSet(l.eng, l.G, seed)
}
