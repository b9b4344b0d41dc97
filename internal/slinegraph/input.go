// Package slinegraph implements NWHy's s-line-graph construction: one
// s-overlap kernel (kernel.go) parameterized by counter strategy and pruning
// level, draining a compacted view of its input (view.go) through the
// paper's work queue, one output stage (collect.go), plus the naive
// all-pairs oracle the tests compare it against. The set-intersection
// heuristic (HiPC'21), the hashmap-counting algorithm (IPDPS'22) and the
// paper's queue-based Algorithms 1 and 2 are Counter values of that kernel.
// Clique expansion is provided as the 1-line graph of the dual hypergraph.
//
// The kernel consumes the Input interface, so every configuration works
// with any hyperedge ID set — bipartite, adjoin (shared index space), or
// arbitrarily renamed — the versatility the paper claims for its queue-based
// algorithms over the [0, nₑ)-bound originals.
package slinegraph

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// Input is the representation-independent view the kernel operates on.
// Hyperedge IDs may be any subset of [0, IDSpace()); hypernode handles are
// whatever Incidence returns, below NodeSpace().
//
// The kernel relies on no order an Input lists anything in: it reads
// EdgeIDs and every Incidence row once, into its own view (view.go), whose
// rows are sorted by construction — the intersection counter's merges run on
// those — and never calls EdgesOf, which only ConstructDirty's tally reads.
// Incidence rows are sorted all the same (both representations store them
// so); EdgesOf rows need not be, and Renamed's are not.
type Input interface {
	// EdgeIDs returns the hyperedge work-queue contents, in any order.
	// Callers may reorder the returned slice (it is a fresh copy).
	EdgeIDs() []uint32
	// IDSpace bounds every hyperedge ID (for stamp/result arrays).
	IDSpace() int
	// NodeSpace bounds every hypernode handle.
	NodeSpace() int
	// Incidence returns the hypernode handles of hyperedge e, sorted.
	Incidence(e uint32) []uint32
	// EdgesOf returns the hyperedge IDs incident to hypernode handle v, in
	// any order.
	EdgesOf(v uint32) []uint32
	// EdgeDegree reports |e| for hyperedge e.
	EdgeDegree(e uint32) int
}

// bipartiteInput adapts the two-index-space representation.
type bipartiteInput struct {
	h *core.Hypergraph
}

// FromHypergraph exposes a bipartite-representation hypergraph as a
// queue-algorithm input with hyperedge IDs [0, nₑ).
func FromHypergraph(h *core.Hypergraph) Input { return bipartiteInput{h} }

func (b bipartiteInput) EdgeIDs() []uint32 {
	ids := make([]uint32, b.h.NumEdges())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}
func (b bipartiteInput) IDSpace() int                { return b.h.NumEdges() }
func (b bipartiteInput) NodeSpace() int              { return b.h.NumNodes() }
func (b bipartiteInput) Incidence(e uint32) []uint32 { return b.h.Edges.Row(int(e)) }
func (b bipartiteInput) EdgesOf(v uint32) []uint32   { return b.h.Nodes.Row(int(v)) }
func (b bipartiteInput) EdgeDegree(e uint32) int     { return b.h.Edges.Degree(int(e)) }

// adjoinInput adapts the shared-index-space representation: hyperedges keep
// their shared-space IDs [0, nₑ) and hypernode handles are shared-space IDs
// [nₑ, nₑ+nᵥ). No conversion back to bipartite form is needed — the point
// of the queue-based algorithms.
type adjoinInput struct {
	a *core.AdjoinGraph
}

// FromAdjoin exposes an adjoin-representation hypergraph as a
// queue-algorithm input.
func FromAdjoin(a *core.AdjoinGraph) Input { return adjoinInput{a} }

func (ai adjoinInput) EdgeIDs() []uint32 {
	ids := make([]uint32, ai.a.NumRealEdges)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}
func (ai adjoinInput) IDSpace() int                { return ai.a.NumVertices() }
func (ai adjoinInput) NodeSpace() int              { return ai.a.NumVertices() }
func (ai adjoinInput) Incidence(e uint32) []uint32 { return ai.a.G.Row(int(e)) }
func (ai adjoinInput) EdgesOf(v uint32) []uint32   { return ai.a.G.Row(int(v)) }
func (ai adjoinInput) EdgeDegree(e uint32) int     { return ai.a.G.Degree(int(e)) }

// renamedInput wraps another input with an arbitrary hyperedge renaming —
// the situation (permuted, non-contiguous IDs) the queue-based algorithms
// were designed for and the non-queue ones cannot handle.
type renamedInput struct {
	base    Input
	toNew   map[uint32]uint32
	toOld   map[uint32]uint32
	idSpace int
}

// Renamed returns in with hyperedge e renamed to rename[e]. rename must be
// injective; IDs may be arbitrary within idSpace.
func Renamed(in Input, rename map[uint32]uint32, idSpace int) Input {
	toOld := make(map[uint32]uint32, len(rename))
	for o, n := range rename {
		toOld[n] = o
	}
	return renamedInput{base: in, toNew: rename, toOld: toOld, idSpace: idSpace}
}

func (r renamedInput) EdgeIDs() []uint32 {
	base := r.base.EdgeIDs()
	out := make([]uint32, len(base))
	for i, e := range base {
		out[i] = r.toNew[e]
	}
	return out
}
func (r renamedInput) IDSpace() int                { return r.idSpace }
func (r renamedInput) NodeSpace() int              { return r.base.NodeSpace() }
func (r renamedInput) Incidence(e uint32) []uint32 { return r.base.Incidence(r.toOld[e]) }
func (r renamedInput) EdgesOf(v uint32) []uint32 {
	base := r.base.EdgesOf(v)
	out := make([]uint32, len(base))
	for i, e := range base {
		out[i] = r.toNew[e]
	}
	return out
}
func (r renamedInput) EdgeDegree(e uint32) int { return r.base.EdgeDegree(r.toOld[e]) }

// canonPairs normalizes an s-line edge list: U < V per pair, sorted,
// deduplicated. All construction algorithms return canonical lists so
// results are directly comparable across algorithms and representations.
func canonPairs(eng *parallel.Engine, pairs []sparse.Edge) []sparse.Edge {
	for i, e := range pairs {
		if e.U > e.V {
			pairs[i] = sparse.Edge{U: e.V, V: e.U}
		}
	}
	parallel.RadixSort64On(eng, pairs, func(e sparse.Edge) uint64 {
		return uint64(e.U)<<32 | uint64(e.V)
	})
	out := pairs[:0]
	for i, e := range pairs {
		if i > 0 && e == pairs[i-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// countCommonGE counts |a ∩ b| of two sorted slices, short-circuiting as
// soon as the count reaches s or the remaining elements cannot reach it.
// Returns (count, reachedS).
func countCommonGE(a, b []uint32, s int) (int, bool) {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		if c >= s {
			return c, true
		}
		// Prune: even matching everything left cannot reach s.
		if c+min(len(a)-i, len(b)-j) < s {
			return c, false
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c, c >= s
}
