package core

import "nwhy/internal/parallel"

// Toplexes computes the maximal hyperedges of a hypergraph (the paper's
// Algorithm 3): hyperedge e is a toplex iff no other hyperedge f is a strict
// superset of e. Duplicate hyperedges keep only the smallest ID. It is
// ToplexCover's first return value.
func Toplexes(eng *parallel.Engine, h *Hypergraph) []uint32 {
	tops, _ := ToplexCover(eng, h)
	return tops
}

// ToplexCover computes the toplexes (ascending) together with a containment
// map: for every hyperedge e, cover[e] == e iff e is a toplex; otherwise
// cover[e] is a deterministic witness that e is non-maximal — the
// smallest-ID hyperedge whose member set strictly contains e's (or, for
// duplicate member sets, the smallest duplicate ID). Since deg(cover[e]) >
// deg(e), or the degrees are equal and cover[e] < e, the potential
// (deg, -ID) strictly increases along cover chains, so following cover
// repeatedly terminates at a toplex. This is the expansion map the
// toplex-only s-component construction uses to label non-maximal
// hyperedges: e ⊆ cover[e] means |e ∩ cover[e]| = deg(e), so any e clearing
// the degree filter is s-connected to its cover.
//
// Unlike Algorithm 3's shared mutable set, each hyperedge is decided
// independently (embarrassingly parallel) by a pivot scan: a superset of e
// lies in the incidence list of every member of e, so the list of e's
// lowest-degree member holds every candidate, and each one that survives
// the degree filter takes one short-circuiting sorted-merge subset test —
// O(d_min · |e|) per hyperedge at worst. On a cancelled engine the result
// is partial; callers check eng.Err().
func ToplexCover(eng *parallel.Engine, h *Hypergraph) (tops, cover []uint32) {
	ne := h.NumEdges()
	cover = make([]uint32, ne)
	eng.ForN(ne, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			cover[e] = coverOf(h, uint32(e))
		}
	})
	for e, c := range cover {
		if c == uint32(e) {
			tops = append(tops, c)
		}
	}
	return tops, cover
}

// coverOf returns e's covering witness, e itself when maximal. The pivot's
// incidence list ascends, so the first hit is the minimum-ID witness.
func coverOf(h *Hypergraph, e uint32) uint32 {
	members := h.EdgeIncidence(int(e))
	size := len(members)
	if size == 0 {
		// Every hyperedge contains the empty one (dead rows after removals
		// are empty too). Hyperedge 0 dominates any later empty hyperedge, by
		// degree or as the smaller duplicate; an empty hyperedge 0 yields to
		// the first non-empty one, a scan only that one hyperedge pays. The
		// witness is never unioned: no degree filter s ≥ 1 admits e.
		if e > 0 {
			return 0
		}
		for f := 1; f < h.NumEdges(); f++ {
			if h.EdgeDegree(f) > 0 {
				return uint32(f)
			}
		}
		return e
	}
	pivot := members[0]
	for _, v := range members[1:] {
		if h.NodeDegree(int(v)) < h.NodeDegree(int(pivot)) {
			pivot = v
		}
	}
	for _, f := range h.NodeIncidence(int(pivot)) {
		df := h.EdgeDegree(int(f))
		if f == e || df < size || (df == size && f > e) {
			continue // not e, not smaller, and of equal sets the smaller ID wins
		}
		if subsetSorted(members, h.EdgeIncidence(int(f))) {
			return f
		}
	}
	return e
}

// ToplexesBruteForce is the O(|E|² · Δ) oracle used by tests: pairwise
// subset checks over sorted incidence lists.
func ToplexesBruteForce(h *Hypergraph) []uint32 {
	ne := h.NumEdges()
	var out []uint32
	for e := 0; e < ne; e++ {
		maximal := true
		for f := 0; f < ne && maximal; f++ {
			if f == e {
				continue
			}
			if subsetSorted(h.EdgeIncidence(e), h.EdgeIncidence(f)) {
				if h.EdgeDegree(f) > h.EdgeDegree(e) || f < e {
					maximal = false
				}
			}
		}
		if maximal {
			out = append(out, uint32(e))
		}
	}
	return out
}

// subsetSorted reports whether sorted slice a ⊆ sorted slice b.
func subsetSorted(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
