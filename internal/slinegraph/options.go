package slinegraph

import "nwhy/internal/unionfind"

// Prune selects the algorithmic-cut heuristics (kernel axis 4), the
// companion paper's pruning arsenal (Liu et al., arXiv:2010.11448). The
// heuristics compose in order: each level includes everything below it.
type Prune int

const (
	// AutoPrune (the zero value) resolves from what the run feeds: the
	// degree prefilter for runs that keep every pair, the full connectivity
	// arsenal when a components builder arms its forest (see resolvePrune).
	AutoPrune Prune = iota
	// NoPrune applies no cut: every hyperedge is in the run's view and on
	// the work list (one below degree s simply never reaches s). The
	// benchmark baseline.
	NoPrune
	// DegreePrune keeps only the hyperedges {e : deg(e) ≥ s} in the run's
	// view (view.go), built once up front, so the queue, the counters and
	// the two-level incidence walk never see a sub-s hyperedge.
	// Result-invariant: sound for every run.
	DegreePrune
	// ConnectivityPrune adds the connected short-circuit: pairs already in
	// one s-component (per the run's concurrent union-find) are dropped —
	// by the tallies when they reach s, by the intersection counter before
	// its merge. Drops pairs, so it degrades to DegreePrune unless the run
	// feeds a forest.
	ConnectivityPrune
	// ToplexPrune additionally restricts construction to the toplex Subset;
	// non-maximal hyperedges are attached through the containment map by
	// the components builder. Degrades to ConnectivityPrune without a
	// Subset.
	ToplexPrune
)

func (p Prune) String() string {
	switch p {
	case NoPrune:
		return "none"
	case DegreePrune:
		return "degree"
	case ConnectivityPrune:
		return "connectivity"
	case ToplexPrune:
		return "toplex"
	default:
		return "auto"
	}
}

// Options configure a construction algorithm run. The zero value selects
// AutoCounter's choice (dense up to denseIDSpaceMax IDs, else hashmap) and
// AutoPrune's level.
type Options struct {
	// Counter selects the overlap-counting strategy (kernel axis 1).
	// AutoCounter (the zero value) resolves from the size of the ID space.
	Counter Counter
	// Prune selects the pruning heuristics (kernel axis 4). AutoPrune (the
	// zero value) resolves from whether a components builder armed forest.
	Prune Prune
	// Stats is no longer read by the kernel: the work order is fixed, so no
	// resolution needs degree statistics. It stays only because bench/ binds
	// it; ROADMAP item 2 deletes it together with the benchmark's
	// slinegraph.degree_stats step.
	Stats *DegreeStats
	// Subset restricts construction to these hyperedge IDs (the toplex-only
	// path). Honored only under ToplexPrune: the components builder that
	// sets it owns expanding labels back over the full ID space through the
	// containment map.
	Subset []uint32
	// forest backs the connected short-circuit and is deliberately
	// unexported: only the in-package components builders may arm it,
	// because skipping already-connected pairs is only sound when the emit
	// target is this same forest. Armed, it is the run's declaration that
	// only s-connectivity is consumed, never the pairs or their overlaps.
	forest *unionfind.Forest
}
