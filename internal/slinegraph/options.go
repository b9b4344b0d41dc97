package slinegraph

import (
	"nwhy/internal/sparse"
	"nwhy/internal/unionfind"
)

// Intent declares what the caller consumes from a construction run — the
// signal the Prune axis resolves against. Heuristics that drop pairs
// (connected short-circuit, toplex restriction) are only sound when the
// caller needs s-connectivity, never the pair list or the exact weights.
type Intent int

const (
	// IntentThreshold (the zero value): the caller consumes every pair with
	// |e ∩ f| ≥ s — the s-line edge list or CSR. Only result-invariant
	// pruning (the degree prefilter) applies.
	IntentThreshold Intent = iota
	// IntentExact: the caller consumes exact overlap counts (the weighted
	// and ensemble emit modes). Same pruning latitude as IntentThreshold.
	IntentExact
	// IntentConnectivity: the caller consumes only the s-component
	// structure, so pairs inside an already-connected component prove
	// nothing and non-maximal hyperedges are redundant — the full pruning
	// arsenal applies.
	IntentConnectivity
)

func (i Intent) String() string {
	switch i {
	case IntentExact:
		return "exact"
	case IntentConnectivity:
		return "connectivity"
	default:
		return "threshold"
	}
}

// Prune selects the algorithmic-cut heuristics (kernel axis 4), the
// companion paper's pruning arsenal (Liu et al., arXiv:2010.11448). The
// heuristics compose in order: each level includes everything below it.
type Prune int

const (
	// AutoPrune (the zero value) resolves from Intent: the degree prefilter
	// for threshold/exact runs, the full connectivity arsenal when the
	// components builders declare IntentConnectivity (see resolvePrune).
	AutoPrune Prune = iota
	// NoPrune keeps the legacy behaviour: every hyperedge enters the work
	// list and candidates are degree-checked one at a time. The benchmark
	// baseline.
	NoPrune
	// DegreePrune builds the eligibility set {e : deg(e) ≥ s} once up front
	// (engine-parallel) as a bitset plus a filtered work span, so schedules,
	// counters, and the two-level incidence walk skip sub-s hyperedges
	// entirely. Result-invariant: sound for every intent.
	DegreePrune
	// ConnectivityPrune adds the connected short-circuit: candidate pairs
	// already in one s-component (per the run's concurrent union-find) skip
	// counting. Drops pairs, so it degrades to DegreePrune unless the run
	// declares IntentConnectivity and feeds a forest.
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
// no relabeling and AutoCounter's choice (dense up to denseIDSpaceMax IDs,
// else hashmap) under the entry point's schedule.
type Options struct {
	// Relabel applies relabel-by-degree to the hyperedge IDs before
	// construction. The kernel sorts its work order — queue contents or
	// iteration space — rather than physically relabeling the CSR pair,
	// which is the versatility the paper's queue-based algorithms
	// demonstrate; results are always in the original ID space.
	Relabel sparse.Order
	// Counter selects the overlap-counting strategy (kernel axis 1).
	// AutoCounter (the zero value) resolves from the size of the ID space.
	Counter Counter
	// Schedule selects the work distribution (kernel axis 2).
	// DefaultSchedule (the zero value) is the entry point's own: blocked
	// for constructions, the queue for the components builders.
	Schedule Schedule
	// Intent declares what the caller consumes (see Intent); it steers the
	// AutoPrune resolution and bounds which heuristics are sound.
	Intent Intent
	// Prune selects the pruning heuristics (kernel axis 4). AutoPrune (the
	// zero value) resolves from Intent.
	Prune Prune
	// Stats optionally injects precomputed degree statistics so the
	// AutoSchedule resolution skips its per-run scan — the facade memoizes
	// one DegreeStats per snapshot epoch. nil falls back to scanning.
	Stats *DegreeStats
	// Subset restricts construction to these hyperedge IDs (the toplex-only
	// path). Honored only under ToplexPrune: the components builder that
	// sets it owns expanding labels back over the full ID space through the
	// containment map.
	Subset []uint32
	// forest backs the connected short-circuit and is deliberately
	// unexported: only the in-package components builders may arm it,
	// because skipping already-connected pairs is only sound when the emit
	// target is this same forest.
	forest *unionfind.Forest
}
