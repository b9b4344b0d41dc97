package nwhy

import (
	"nwhy/internal/core"
	"nwhy/internal/sparse"
)

// This file is the ctx-less surface. Each method is its *Ctx twin run under
// the context the handle's engine is bound to (none for an unbound engine),
// one statement each, so there is one body per query. On a cancelled engine
// a method returns its zero result (nil); call the *Ctx form to observe the
// error.

// dropErr keeps the result of a (result, error) pair. The *Ctx forms return
// the zero result with every error, so nothing is lost but the cause.
func dropErr[T any](v T, _ error) T { return v }

// BFS traverses the hypergraph from hyperedge srcEdge, returning bipartite
// hop levels for hyperedges and hypernodes (-1 = unreachable). All variants
// produce identical levels; they differ in traversal strategy and
// representation, which is what Figure 8 benchmarks.
func (g *NWHypergraph) BFS(srcEdge int, variant BFSVariant) *core.HyperBFSResult {
	return dropErr(g.BFSCtx(g.engine().Context(), srcEdge, variant))
}

// ConnectedComponents labels every hyperedge and hypernode with its
// component (canonical shared-space labels). All variants produce identical
// labels; Figure 7 benchmarks their runtime differences.
func (g *NWHypergraph) ConnectedComponents(variant CCVariant) *core.HyperCCResult {
	return dropErr(g.ConnectedComponentsCtx(g.engine().Context(), variant))
}

// HyperPageRank computes PageRank over hypernodes via the two-step random
// walk on the bipartite structure (node -> uniform hyperedge -> uniform
// member), without materializing any projection.
func (g *NWHypergraph) HyperPageRank(damping, tol float64, maxIter int) []float64 {
	return dropErr(g.HyperPageRankCtx(g.engine().Context(), damping, tol, maxIter))
}

// Toplexes returns the IDs of the maximal hyperedges (paper Algorithm 3),
// served from an epoch-keyed cache shared with Toplexify and the
// toplex-only s-component route; a committed mutation invalidates it like
// the adjoin graph.
func (g *NWHypergraph) Toplexes() []uint32 {
	return dropErr(g.ToplexesCtx(g.engine().Context()))
}

// CliqueExpansion computes the clique-expansion graph of the hypergraph
// (the 1-line graph of the dual): each hyperedge becomes a clique over its
// members. Returned pairs are hypernode ID pairs.
func (g *NWHypergraph) CliqueExpansion() []sparse.Edge {
	return dropErr(g.CliqueExpansionCtx(g.engine().Context()))
}

// SLineGraph constructs the s-line graph of the hypergraph with the default
// options. With edges=true the line graph is over hyperedges (s-line graph);
// with edges=false it is over hypernodes (the s-clique graph of the dual),
// mirroring hg.s_linegraph(s, edges).
func (g *NWHypergraph) SLineGraph(s int, edges bool) *SLineGraph {
	return g.SLineGraphWith(s, edges, ConstructOptions{})
}

// SLineGraphWith constructs the s-line graph with explicit options.
func (g *NWHypergraph) SLineGraphWith(s int, edges bool, o ConstructOptions) *SLineGraph {
	return dropErr(g.SLineGraphCtx(g.engine().Context(), s, edges, o))
}

// SLineGraphWeighted constructs the s-line graph over hyperedges with
// overlap strengths retained.
func (g *NWHypergraph) SLineGraphWeighted(s int) *WeightedSLineGraph {
	return g.SLineGraphWeightedWith(s, ConstructOptions{})
}

// SLineGraphWeightedWith is SLineGraphWeighted with explicit construction
// options — the same ConstructOptions the unweighted variants take, on the
// same route with the value column kept.
func (g *NWHypergraph) SLineGraphWeightedWith(s int, o ConstructOptions) *WeightedSLineGraph {
	return dropErr(g.SLineGraphWeightedCtx(g.engine().Context(), s, o))
}

// SConnectedComponents computes the s-connected components of the
// hyperedges without materializing the s-line graph (see
// SConnectedComponentsCtx). Labels are canonical minimum-member IDs over
// [0, NumEdges()). For repeated queries on a mutating handle use
// IncrementalSCC.
func (g *NWHypergraph) SConnectedComponents(s int) []uint32 {
	return dropErr(g.SConnectedComponentsCtx(g.engine().Context(), s))
}

// RefreshSLineGraph brings a previously constructed s-line graph up to the
// handle's current snapshot. See RefreshSLineGraphCtx.
func (g *NWHypergraph) RefreshSLineGraph(lg *SLineGraph, o ConstructOptions) (*SLineGraph, Refresh, error) {
	return g.RefreshSLineGraphCtx(g.engine().Context(), lg, o)
}

// Commit compacts the batch into a fresh frozen snapshot and atomically
// swaps it in. See CommitCtx.
func (m *Mutation) Commit() error { return m.CommitCtx(m.g.engine().Context()) }
