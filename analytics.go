package nwhy

import (
	"context"

	"nwhy/internal/core"
	"nwhy/internal/graph"
	"nwhy/internal/hygra"
)

// BFSVariant selects a hypergraph BFS implementation.
type BFSVariant int

const (
	// BFSTopDown expands frontiers outward on the bipartite representation
	// (HyperBFS top-down).
	BFSTopDown BFSVariant = iota
	// BFSBottomUp has unvisited entities scan backward for frontier members
	// (HyperBFS bottom-up).
	BFSBottomUp
	// BFSAdjoin runs direction-optimizing BFS on the adjoin representation
	// (AdjoinBFS).
	BFSAdjoin
	// BFSHygraBaseline runs the Hygra-style top-down baseline.
	BFSHygraBaseline
	// BFSDirectionOptimizing runs the hybrid top-down/bottom-up BFS on the
	// bipartite representation.
	BFSDirectionOptimizing
)

// BFSCtx is BFS bounded by ctx: the traversal stops scheduling new rounds
// once ctx is cancelled and returns ctx.Err().
func (g *NWHypergraph) BFSCtx(ctx context.Context, srcEdge int, variant BFSVariant) (*core.HyperBFSResult, error) {
	eng := g.engine().WithContext(ctx)
	switch variant {
	case BFSBottomUp:
		return core.HyperBFSBottomUp(eng, g.hg(), srcEdge)
	case BFSAdjoin:
		a, err := g.adjoinAt(eng, g.snap())
		if err != nil {
			return nil, err
		}
		return core.AdjoinBFS(eng, a, srcEdge)
	case BFSHygraBaseline:
		el, nl, err := hygra.BFS(eng, g.hg(), srcEdge)
		if err != nil {
			return nil, err
		}
		return &core.HyperBFSResult{EdgeLevel: el, NodeLevel: nl}, nil
	case BFSDirectionOptimizing:
		return core.HyperBFSDirectionOptimizing(eng, g.hg(), srcEdge)
	default:
		return core.HyperBFSTopDown(eng, g.hg(), srcEdge)
	}
}

// CCVariant selects a hypergraph connected-components implementation.
type CCVariant int

const (
	// CCHyper is label propagation on the bipartite representation
	// (HyperCC).
	CCHyper CCVariant = iota
	// CCAdjoinAfforest runs Afforest on the adjoin representation
	// (AdjoinCC, the paper's default).
	CCAdjoinAfforest
	// CCAdjoinLabelProp runs label propagation on the adjoin
	// representation.
	CCAdjoinLabelProp
	// CCHygraBaseline runs the Hygra-style label-propagation baseline.
	CCHygraBaseline
)

// HyperTree builds the BFS forest (hypertree) rooted at hyperedge srcEdge,
// recording discovery parents on both sides; hyperpaths between entities
// are read off its parent links.
func (g *NWHypergraph) HyperTree(srcEdge int) *core.HyperTree {
	t, _ := core.BuildHyperTree(g.engine(), g.hg(), srcEdge)
	return t
}

// AdjoinBetweenness computes exact betweenness centrality of every
// hyperedge and hypernode under the bipartite-walk metric by running
// Brandes' algorithm on the adjoin representation and splitting the scores
// — the paper's "any graph algorithm can be used to compute hypergraph
// metrics" claim, applied to a metric no bespoke hypergraph kernel exists
// for here.
func (g *NWHypergraph) AdjoinBetweenness(normalized bool) (edgeBC, nodeBC []float64) {
	return g.adjoinScores(func(eng *Engine, a *graph.Graph) []float64 {
		return graph.BetweennessCentrality(eng, a, normalized)
	})
}

// adjoinScores runs one per-vertex metric on the adjoin graph, both on the
// handle's engine, and splits the scores into the two index spaces. A
// cancelled engine returns nil for both.
func (g *NWHypergraph) adjoinScores(metric func(eng *Engine, a *graph.Graph) []float64) (edges, nodes []float64) {
	eng := g.engine()
	a, err := g.adjoinAt(eng, g.snap())
	if err != nil {
		return nil, nil
	}
	e, n := core.SplitResult(a, metric(eng, a.G))
	return append([]float64(nil), e...), append([]float64(nil), n...)
}

// AdjoinCloseness computes closeness centrality over the adjoin
// representation, split into the hyperedge and hypernode index spaces.
func (g *NWHypergraph) AdjoinCloseness() (edgeC, nodeC []float64) {
	return g.adjoinScores(graph.ClosenessCentrality)
}

// AdjoinEccentricity computes bipartite-hop eccentricities over the adjoin
// representation, split into the two index spaces.
func (g *NWHypergraph) AdjoinEccentricity() (edgeEcc, nodeEcc []float64) {
	return g.adjoinScores(graph.Eccentricity)
}

// AdjoinPageRank computes PageRank on the adjoin representation and splits
// the mass into hyperedge and hypernode scores. Note the random walk here
// alternates sides every step (the adjoin graph is bipartite), so hypernode
// scores differ from HyperPageRank's two-step walk by the mass parked on
// hyperedges.
func (g *NWHypergraph) AdjoinPageRank(damping, tol float64, maxIter int) (edgePR, nodePR []float64) {
	return g.adjoinScores(func(eng *Engine, a *graph.Graph) []float64 {
		return graph.PageRank(eng, a, damping, tol, maxIter)
	})
}

// HyperPageRankCtx is HyperPageRank bounded by ctx: iteration stops at the
// next round boundary once ctx is cancelled and ctx.Err() is returned.
func (g *NWHypergraph) HyperPageRankCtx(ctx context.Context, damping, tol float64, maxIter int) ([]float64, error) {
	return core.HyperPageRank(g.engine().WithContext(ctx), g.hg(), damping, tol, maxIter)
}

// HyperCoreness computes each hypernode's hypergraph core number under
// peeling semantics: removing a hypernode kills every hyperedge containing
// it; v's core number is the largest k it survives to.
func (g *NWHypergraph) HyperCoreness() []int {
	return core.HyperCoreness(g.hg())
}

// ConnectedComponentsCtx is ConnectedComponents bounded by ctx: the fixpoint
// loop stops at the next round boundary once ctx is cancelled and returns
// ctx.Err().
func (g *NWHypergraph) ConnectedComponentsCtx(ctx context.Context, variant CCVariant) (*core.HyperCCResult, error) {
	eng := g.engine().WithContext(ctx)
	switch variant {
	case CCAdjoinAfforest, CCAdjoinLabelProp:
		a, err := g.adjoinAt(eng, g.snap())
		if err != nil {
			return nil, err
		}
		alg := core.AdjoinAfforest
		if variant == CCAdjoinLabelProp {
			alg = core.AdjoinLabelPropagation
		}
		return core.AdjoinCC(eng, a, alg)
	case CCHygraBaseline:
		ec, nc, err := hygra.CC(eng, g.hg())
		if err != nil {
			return nil, err
		}
		return &core.HyperCCResult{EdgeComp: ec, NodeComp: nc}, nil
	default:
		return core.HyperCC(eng, g.hg())
	}
}
