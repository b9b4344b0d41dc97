package nwhy

import (
	"context"
	"slices"

	"nwhy/internal/core"
	"nwhy/internal/slinegraph"
	"nwhy/internal/smetrics"
	"nwhy/internal/sparse"
)

// Strategy selects the overlap-counting strategy — the counter axis of the
// s-overlap construction kernel, for the unweighted and the weighted
// constructions alike.
type Strategy int

const (
	// StrategyAuto picks dense or hashmap from the size of the ID space.
	StrategyAuto Strategy = iota
	// StrategyHashmap tallies overlaps in per-worker hash maps.
	StrategyHashmap
	// StrategyDense tallies overlaps in per-worker dense stamp/counter
	// arrays indexed by hyperedge ID.
	StrategyDense
	// StrategyIntersection sorted-merge intersects candidate incidence
	// lists, short-circuiting at s.
	StrategyIntersection
)

func (s Strategy) String() string { return slinegraph.Counter(s).String() }

// ConstructOptions configure s-line-graph construction, weighted or not.
// Every value runs the one s-overlap kernel, which drains its work list
// through the paper's queue in ID order under the degree prefilter, and
// yields the same graph; the fields only change how the work is counted and
// what it is fed.
type ConstructOptions struct {
	// Strategy selects the overlap-counting strategy. Zero value:
	// auto-resolve.
	Strategy Strategy
	// UseAdjoin feeds the kernel the adjoin representation (one shared
	// index set) instead of the bipartite one. Hyperedge-side only.
	UseAdjoin bool
}

// The paper's four named constructions, as presets pinning the Strategy each
// name stands for (every other field stays settable on a copy). Every run
// drains the paper's queue, so a queue-based algorithm and its non-queue
// namesake are one value under two labels. Figure 9 compares exactly these;
// none is a separate code path.
var (
	// PresetHashmap is the hashmap-counting algorithm (IPDPS'22):
	// {Strategy: StrategyHashmap}, the same value as PresetAlgorithm1.
	PresetHashmap = ConstructOptions{Strategy: StrategyHashmap}
	// PresetIntersection is the set-intersection heuristic (HiPC'21):
	// {Strategy: StrategyIntersection}, the same value as PresetAlgorithm2.
	PresetIntersection = ConstructOptions{Strategy: StrategyIntersection}
	// PresetAlgorithm1 is the paper's Algorithm 1, queue-based hashmap
	// counting: {Strategy: StrategyHashmap}.
	PresetAlgorithm1 = ConstructOptions{Strategy: StrategyHashmap}
	// PresetAlgorithm2 is the paper's Algorithm 2, queue-based set
	// intersection: {Strategy: StrategyIntersection}.
	PresetAlgorithm2 = ConstructOptions{Strategy: StrategyIntersection}
)

func (o ConstructOptions) internal() slinegraph.Options {
	return slinegraph.Options{Counter: slinegraph.Counter(o.Strategy)}
}

// SLineGraph is a materialized s-line graph handle exposing the s-metric
// queries of the Python API (Listing 5). It remembers the snapshot epoch and
// orientation it was built with, so RefreshSLineGraph can tell whether it is
// still current and rebuild the same graph if not. Its *Ctx score vectors are
// computed once per handle (scoreMemo, squery.go).
type SLineGraph struct {
	*smetrics.SLineGraph
	epoch     uint64
	overEdges bool
	memo      scoreMemo
}

// Epoch reports the snapshot epoch the handle was built from.
func (l *SLineGraph) Epoch() uint64 { return l.epoch }

// SLineGraphCtx is SLineGraphWith bounded by ctx: the construction aborts at
// the next grain boundary once ctx is cancelled and returns ctx.Err(). The
// returned handle stays bound to the handle's engine (without ctx), so
// subsequent s-metric queries are not affected by an expired deadline.
func (g *NWHypergraph) SLineGraphCtx(ctx context.Context, s int, edges bool, o ConstructOptions) (*SLineGraph, error) {
	snap, eng := g.snap(), g.engine().WithContext(ctx)
	h, csr, err := g.lineCSR(eng, snap, s, edges, false, o)
	if err != nil {
		return nil, err
	}
	l, err := smetrics.BuildCSR(eng, h, s, csr)
	if err != nil {
		return nil, err
	}
	return &SLineGraph{SLineGraph: l.WithEngine(g.engine()), epoch: snap.epoch, overEdges: edges}, nil
}

// lineCSR is the one route from ConstructOptions to the symmetric s-line
// adjacency over the first nₑ IDs of h, which it picks with the kernel's
// input: the snapshot's hypergraph, its dual for edges=false, the adjoin
// graph of the same snapshot under UseAdjoin. With exact set the CSR carries
// Val = |e ∩ f|. It runs on eng (possibly ctx-bound).
func (g *NWHypergraph) lineCSR(eng *Engine, snap *snapshot, s int, edges, exact bool, o ConstructOptions) (*core.Hypergraph, *sparse.CSR, error) {
	h := snap.h
	if !edges {
		h = h.Dual()
	}
	in := slinegraph.FromHypergraph(h)
	if o.UseAdjoin && edges {
		a, err := g.adjoinAt(eng, snap)
		if err != nil {
			return nil, nil, err
		}
		in = slinegraph.FromAdjoin(a)
	}
	construct := slinegraph.ConstructCSR
	if exact {
		construct = slinegraph.ConstructWeightedCSR
	}
	csr, err := construct(eng, in, s, o.internal())
	if err != nil {
		return nil, nil, err
	}
	if n := h.NumEdges(); csr.NumRows() > n {
		// Adjoin IDs from nₑ up are hypernodes: their rows are empty by
		// construction, and the line graph's vertices are the first nₑ.
		csr, err = sparse.AdoptSorted(eng, n, n, csr.RowPtr[:n+1], csr.Col, csr.Val)
	}
	return h, csr, err
}

// WeightedSLineGraph is the strength-annotated s-line graph handle: every
// s-line edge carries its exact overlap |e ∩ f| (the edge widths of the
// paper's Figure 5), enabling strength-weighted distances. Like SLineGraph,
// it computes each *Ctx score vector once.
type WeightedSLineGraph struct {
	*smetrics.WeightedSLineGraph
	memo scoreMemo
}

// SLineGraphWeightedCtx is SLineGraphWeightedWith bounded by ctx: the
// construction aborts at the next grain boundary once ctx is cancelled and
// returns ctx.Err(). The returned handle is rebound to the handle's engine
// (without ctx), so subsequent queries are not affected by an expired
// deadline.
func (g *NWHypergraph) SLineGraphWeightedCtx(ctx context.Context, s int, o ConstructOptions) (*WeightedSLineGraph, error) {
	eng := g.engine().WithContext(ctx)
	h, csr, err := g.lineCSR(eng, g.snap(), s, true, true, o)
	if err != nil {
		return nil, err
	}
	l, err := smetrics.BuildWeightedCSR(eng, h, s, csr)
	if err != nil {
		return nil, err
	}
	l.SLineGraph = l.SLineGraph.WithEngine(g.engine())
	return &WeightedSLineGraph{WeightedSLineGraph: l}, nil
}

// SLineGraphEnsemble constructs the s-line graphs for several values of s
// from one counting pass (Liu et al., IPDPS'22): the overlap-weighted graph
// at the smallest s, then one linear filter per s.
func (g *NWHypergraph) SLineGraphEnsemble(ss []int, edges bool) map[int]*SLineGraph {
	return g.ensemble(ss, edges, ConstructOptions{})
}

// SLineGraphEnsembleQueue is SLineGraphEnsemble over hyperedges; with
// useAdjoin its counting pass runs directly on the adjoin representation.
func (g *NWHypergraph) SLineGraphEnsembleQueue(ss []int, useAdjoin bool) map[int]*SLineGraph {
	return g.ensemble(ss, true, ConstructOptions{UseAdjoin: useAdjoin})
}

// ensemble builds one handle per distinct s in ss: lineCSR once, exact, at
// min(ss), then KeepAtLeast(s) → smetrics.BuildCSR for each. Empty when ss
// is, or when the bound engine's context is cancelled.
func (g *NWHypergraph) ensemble(ss []int, edges bool, o ConstructOptions) map[int]*SLineGraph {
	out := make(map[int]*SLineGraph, len(ss))
	if len(ss) == 0 {
		return out
	}
	snap, eng := g.snap(), g.engine()
	h, base, err := g.lineCSR(eng, snap, slices.Min(ss), edges, true, o)
	if err != nil {
		return out
	}
	for _, s := range ss {
		if out[s] != nil {
			continue
		}
		csr, err := base.KeepAtLeast(eng, float64(s))
		if err != nil {
			return map[int]*SLineGraph{}
		}
		l, err := smetrics.BuildCSR(eng, h, s, csr)
		if err != nil {
			return map[int]*SLineGraph{}
		}
		out[s] = &SLineGraph{SLineGraph: l, epoch: snap.epoch, overEdges: edges}
	}
	return out
}

// SConnectedComponentsCtx is SConnectedComponents bounded by ctx: s-incident
// pairs are unioned into a concurrent disjoint-set forest as the queue-based
// construction discovers them, the drain stops at the next chunk boundary
// once ctx is cancelled, and ctx.Err() is returned. It takes one of two
// routes, whose labels are bit-identical (the differential tests pin this):
// the toplex-only route when the handle's toplex cover is already warm for
// this snapshot, else the connectivity route (degree prefilter + connected
// short-circuit). A cold cover costs 0.2–0.4 of a connectivity pass on the
// community-shaped serve input and under 0.1 on the containment-rich one
// (EXPERIMENTS.md, "Toplex cover by pivot scan"), but the toplex route
// repays it only where containment is common, so the call never pays for it
// speculatively. A caller who wants the toplex route (many component queries
// on one snapshot, the serving tier's pattern) warms the cover with
// Toplexes first.
func (g *NWHypergraph) SConnectedComponentsCtx(ctx context.Context, s int) ([]uint32, error) {
	snap, eng := g.snap(), g.engine().WithContext(ctx)
	in := slinegraph.FromHypergraph(snap.h)
	var labels []uint32
	var err error
	if g.toplexCacheWarmAt(snap) {
		var tops, cover []uint32
		if tops, cover, err = g.toplexCover(eng, snap); err != nil {
			return nil, err
		}
		labels, err = slinegraph.SComponentsToplex(eng, in, s, tops, cover, slinegraph.Options{})
	} else {
		labels, err = slinegraph.SComponentsDirect(eng, in, s, slinegraph.Options{})
	}
	if err != nil {
		return nil, err
	}
	return labels[:snap.h.NumEdges()], nil
}
