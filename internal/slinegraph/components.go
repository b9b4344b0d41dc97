package slinegraph

import (
	"nwhy/internal/parallel"
	"nwhy/internal/unionfind"
)

// SComponentsDirect computes the s-connected components of the hyperedges
// WITHOUT materializing the s-line graph edge list: whenever the
// single-phase queue algorithm (Algorithm 1's traversal) certifies an
// s-incident pair, the pair is unioned into a concurrent disjoint-set
// forest instead of appended to an edge list. For component queries this
// saves the memory of the (often near-quadratic) s-line edge list — the
// usability bottleneck the paper attributes to clique expansion.
//
// Returned labels cover the full ID space [0, in.IDSpace()); hyperedges in
// the same s-component share the minimum member ID, every other ID is a
// singleton.
func SComponentsDirect(eng *parallel.Engine, in Input, s int, o Options) ([]uint32, error) {
	forest, err := SComponentsForest(eng, in, s, o)
	if err != nil {
		return nil, err
	}
	return forest.Labels(), nil
}

// SComponentsToplex computes the s-connected components through the
// toplex-only construction, the companion paper's strongest connectivity
// cut: the kernel runs over the maximal hyperedges only (tops, with the
// eligibility bitset confining candidates to the same subset), then every
// non-maximal hyperedge clearing the degree filter is attached to its
// containment witness cover[e] (both from core.ToplexCover).
//
// Soundness of the expansion: e ⊆ cover[e] means |e ∩ cover[e]| = deg(e),
// so an eligible non-toplex s-overlaps each link of its cover chain, which
// terminates at a toplex of no smaller degree. Completeness: if e₁ and e₂
// s-overlap, their covering toplexes T₁ ⊇ e₁ and T₂ ⊇ e₂ satisfy
// |T₁ ∩ T₂| ≥ |e₁ ∩ e₂| ≥ s, so the toplex-restricted kernel connects
// them directly. The resulting partition — and the minimum-member labels —
// is therefore bit-identical to SComponentsDirect over the full set.
func SComponentsToplex(eng *parallel.Engine, in Input, s int, tops, cover []uint32, o Options) ([]uint32, error) {
	forest := unionfind.New(in.IDSpace())
	o.Prune = ToplexPrune
	o.Subset = tops
	o.forest = forest
	if err := unionInto(eng, in, s, o); err != nil {
		return nil, err
	}
	// Expand: attach eligible non-maximal hyperedges to their covers. The
	// max(s, 1) floor keeps s = 0 parity with the direct kernel, which only
	// ever connects hyperedges sharing at least one node.
	floor := max(s, 1)
	eng.ForN(len(cover), func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			if c := cover[e]; c != uint32(e) && in.EdgeDegree(uint32(e)) >= floor {
				forest.Union(uint32(e), c)
			}
		}
	})
	forest.Compress(eng) // a no-op once cancelled
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return forest.Labels(), nil
}
