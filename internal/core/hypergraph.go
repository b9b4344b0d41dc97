// Package core implements the paper's primary contribution: the hypergraph
// data structures (bipartite representation with two mutually indexed index
// sets, and the adjoin representation with one shared index set) and the
// exact hypergraph algorithms that operate on them — HyperBFS, HyperCC,
// AdjoinBFS, AdjoinCC, and toplex computation (Algorithm 3).
package core

import (
	"fmt"
	"iter"
	"slices"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// Hypergraph is the bipartite representation of a hypergraph: two separate
// but mutually indexed CSR structures (the paper's biadjacency<0> and
// biadjacency<1>). Edges maps each hyperedge to its incident hypernodes;
// Nodes maps each hypernode to its incident hyperedges. Hyperedge IDs and
// hypernode IDs are two independent index spaces.
type Hypergraph struct {
	Edges *sparse.CSR
	Nodes *sparse.CSR
}

// FromBiEdgeList builds the two mutually indexed incidence structures from
// a bipartite edge list on the shared engine. See FromBiEdgeListOn.
func FromBiEdgeList(bel *sparse.BiEdgeList) *Hypergraph {
	e, n := sparse.BiAdjacency(bel)
	return &Hypergraph{Edges: e, Nodes: n}
}

// FromBiEdgeListOn is FromBiEdgeList on engine eng (sparse.BiAdjacencyOn):
// repeated incidences collapse, the first weight of each kept. A cancelled
// engine returns eng.Err() and no hypergraph.
func FromBiEdgeListOn(eng *parallel.Engine, bel *sparse.BiEdgeList) (*Hypergraph, error) {
	e, n, err := sparse.BiAdjacencyOn(eng, bel)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{Edges: e, Nodes: n}, nil
}

// FromIncidenceCSR builds a hypergraph around a prebuilt hyperedge
// incidence structure on the shared engine. See FromIncidenceCSROn.
func FromIncidenceCSR(edges *sparse.CSR) *Hypergraph {
	return &Hypergraph{Edges: edges, Nodes: edges.Transpose()}
}

// FromIncidenceCSROn builds a hypergraph around a prebuilt hyperedge
// incidence structure — the snapshot-load fast path, where the CSR comes off
// disk already canonical — deriving the node incidence by one counting
// transpose on eng. A cancelled engine returns eng.Err() and no hypergraph.
func FromIncidenceCSROn(eng *parallel.Engine, edges *sparse.CSR) (*Hypergraph, error) {
	nodes, err := sparse.TransposeOn(eng, edges)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{Edges: edges, Nodes: nodes}, nil
}

// FromSets builds a hypergraph from explicit hyperedge vertex sets over
// numNodes hypernodes. numNodes < 0 infers the node count from the sets.
func FromSets(sets [][]uint32, numNodes int) *Hypergraph {
	if numNodes < 0 {
		numNodes = 0
		for _, s := range sets {
			for _, v := range s {
				if int(v) >= numNodes {
					numNodes = int(v) + 1
				}
			}
		}
	}
	bel := sparse.NewBiEdgeList(len(sets), numNodes)
	for e, s := range sets {
		for _, v := range s {
			bel.Add(uint32(e), v)
		}
	}
	return FromBiEdgeList(bel) // hyperedges are sets: repeated members collapse in the build
}

// NumEdges reports the number of hyperedges |E|.
func (h *Hypergraph) NumEdges() int { return h.Edges.NumRows() }

// NumNodes reports the number of hypernodes |V|.
func (h *Hypergraph) NumNodes() int { return h.Nodes.NumRows() }

// NumIncidences reports the number of (hyperedge, hypernode) incidences —
// the number of non-zeros in the incidence matrix.
func (h *Hypergraph) NumIncidences() int { return h.Edges.NumEdges() }

// EdgeIncidence returns hyperedge e's incident hypernodes (sorted; aliases
// storage).
func (h *Hypergraph) EdgeIncidence(e int) []uint32 { return h.Edges.Row(e) }

// NodeIncidence returns hypernode v's incident hyperedges (sorted; aliases
// storage).
func (h *Hypergraph) NodeIncidence(v int) []uint32 { return h.Nodes.Row(v) }

// EdgeDegree reports |e|: the number of hypernodes hyperedge e joins.
func (h *Hypergraph) EdgeDegree(e int) int { return h.Edges.Degree(e) }

// NodeDegree reports d(v): the number of hyperedges hypernode v joins.
func (h *Hypergraph) NodeDegree(v int) int { return h.Nodes.Degree(v) }

// EdgeDegrees returns the degree of every hyperedge.
func (h *Hypergraph) EdgeDegrees() []int { return h.Edges.Degrees() }

// NodeDegrees returns the degree of every hypernode.
func (h *Hypergraph) NodeDegrees() []int { return h.Nodes.Degrees() }

// Dual returns the dual hypergraph H*: hyperedges and hypernodes swap roles.
// The incidence matrix of the dual is the transpose of H's. The returned
// hypergraph shares storage with h.
func (h *Hypergraph) Dual() *Hypergraph {
	return &Hypergraph{Edges: h.Nodes, Nodes: h.Edges}
}

// EdgeRange iterates over (hyperedge ID, incident hypernodes) pairs — the
// "range of ranges" view of Listing 3, with Go iterators standing in for
// C++20 ranges.
func (h *Hypergraph) EdgeRange() iter.Seq2[int, []uint32] {
	return func(yield func(int, []uint32) bool) {
		for e := 0; e < h.NumEdges(); e++ {
			if !yield(e, h.Edges.Row(e)) {
				return
			}
		}
	}
}

// NodeRange iterates over (hypernode ID, incident hyperedges) pairs.
func (h *Hypergraph) NodeRange() iter.Seq2[int, []uint32] {
	return func(yield func(int, []uint32) bool) {
		for v := 0; v < h.NumNodes(); v++ {
			if !yield(v, h.Nodes.Row(v)) {
				return
			}
		}
	}
}

// EdgeNeighbors reports the hyperedges adjacent to hyperedge e (sharing at
// least one hypernode), excluding e itself, in ascending order.
func (h *Hypergraph) EdgeNeighbors(e int) []uint32 {
	seen := map[uint32]bool{}
	for _, v := range h.Edges.Row(e) {
		for _, f := range h.Nodes.Row(int(v)) {
			if int(f) != e {
				seen[f] = true
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// NodeNeighbors reports the hypernodes adjacent to hypernode v (sharing at
// least one hyperedge), excluding v itself, in ascending order.
func (h *Hypergraph) NodeNeighbors(v int) []uint32 {
	return h.Dual().EdgeNeighbors(v)
}

// Validate checks that the two incidence structures are mutual transposes
// and structurally sound. The transpose check runs on eng; a cancelled
// engine returns eng.Err().
func (h *Hypergraph) Validate(eng *parallel.Engine) error {
	if err := h.Edges.Validate(); err != nil {
		return fmt.Errorf("core: edge incidence: %w", err)
	}
	if err := h.Nodes.Validate(); err != nil {
		return fmt.Errorf("core: node incidence: %w", err)
	}
	if h.Edges.NumCols() != h.Nodes.NumRows() || h.Edges.NumRows() != h.Nodes.NumCols() {
		return fmt.Errorf("core: dimensions not dual: %dx%d vs %dx%d",
			h.Edges.NumRows(), h.Edges.NumCols(), h.Nodes.NumRows(), h.Nodes.NumCols())
	}
	t, err := sparse.TransposeOn(eng, h.Edges)
	if err != nil {
		return err
	}
	if !t.Equal(h.Nodes) {
		return fmt.Errorf("core: incidence structures are not mutually indexed (transpose mismatch)")
	}
	return nil
}

// Stats are the Table I input characteristics of a hypergraph.
type Stats struct {
	NumNodes      int     // |V|
	NumEdges      int     // |E|
	AvgNodeDegree float64 // mean d(v)
	AvgEdgeDegree float64 // mean |e|
	MaxNodeDegree int     // Δv
	MaxEdgeDegree int     // Δe
}

// ComputeStats derives the Table I row for h.
func ComputeStats(h *Hypergraph) Stats {
	return Stats{
		NumNodes:      h.NumNodes(),
		NumEdges:      h.NumEdges(),
		AvgNodeDegree: h.Nodes.AvgDegree(),
		AvgEdgeDegree: h.Edges.AvgDegree(),
		MaxNodeDegree: h.Nodes.MaxDegree(),
		MaxEdgeDegree: h.Edges.MaxDegree(),
	}
}
