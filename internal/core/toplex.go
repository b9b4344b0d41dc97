package core

import (
	"slices"

	"nwhy/internal/parallel"
)

// Toplexes computes the maximal hyperedges of a hypergraph (the paper's
// Algorithm 3): hyperedge e is a toplex iff no other hyperedge f is a strict
// superset of e. Duplicate hyperedges keep only the smallest ID.
//
// Unlike Algorithm 3's shared mutable set, this implementation decides each
// hyperedge independently (embarrassingly parallel) with a counting
// superset test: any f containing e appears exactly |e| times among the
// incidence lists of e's vertices, so tallying those lists finds every
// superset in O(Σ_{v∈e} d(v)) without pairwise subset checks.
func Toplexes(eng *parallel.Engine, h *Hypergraph) []uint32 {
	ne := h.NumEdges()
	tls := parallel.NewTLSFor(eng, func() []uint32 { return nil })
	counts := parallel.NewTLSFor(eng, func() map[uint32]int { return map[uint32]int{} })
	eng.ForN(ne, func(w, lo, hi int) {
		buf := tls.Get(w)
		cnt := *counts.Get(w)
		for e := lo; e < hi; e++ {
			if isToplex(h, uint32(e), cnt) {
				*buf = append(*buf, uint32(e))
			}
		}
	})
	var out []uint32
	tls.All(func(v *[]uint32) { out = append(out, *v...) })
	slices.Sort(out)
	return out
}

// ToplexCover computes the toplexes together with a containment map: for
// every hyperedge e, cover[e] == e iff e is a toplex; otherwise cover[e] is
// a deterministic witness that e is non-maximal — the smallest-ID hyperedge
// whose member set strictly contains e's (or, for duplicate member sets,
// the smallest duplicate ID). Since deg(cover[e]) > deg(e), or the degrees
// are equal and cover[e] < e, the potential (deg, -ID) strictly increases
// along cover chains, so following cover repeatedly terminates at a toplex.
// This is the expansion map the toplex-only s-component construction uses
// to label non-maximal hyperedges: e ⊆ cover[e] means |e ∩ cover[e]| =
// deg(e), so any e clearing the degree filter is s-connected to its cover.
func ToplexCover(eng *parallel.Engine, h *Hypergraph) (tops, cover []uint32) {
	ne := h.NumEdges()
	cover = make([]uint32, ne)
	tls := parallel.NewTLSFor(eng, func() []uint32 { return nil })
	counts := parallel.NewTLSFor(eng, func() map[uint32]int { return map[uint32]int{} })
	eng.ForN(ne, func(w, lo, hi int) {
		buf := tls.Get(w)
		cnt := *counts.Get(w)
		for e := lo; e < hi; e++ {
			c := coverOf(h, uint32(e), cnt)
			cover[e] = c
			if c == uint32(e) {
				*buf = append(*buf, uint32(e))
			}
		}
	})
	var out []uint32
	tls.All(func(v *[]uint32) { out = append(out, *v...) })
	slices.Sort(out)
	return out, cover
}

// coverOf returns e's covering witness (e itself when maximal), using the
// same counting superset test as isToplex but scanning every qualifying
// superset to pick the deterministic minimum-ID one. cnt is reusable
// scratch (cleared before use).
func coverOf(h *Hypergraph, e uint32, cnt map[uint32]int) uint32 {
	clear(cnt)
	size := h.EdgeDegree(int(e))
	if size == 0 {
		// Mirrors isToplex's empty-edge rule; the returned witness (never
		// unioned — an empty edge cannot clear any degree filter s ≥ 1) is
		// the first disqualifying hyperedge.
		for f := 0; f < h.NumEdges(); f++ {
			if f != int(e) && (h.EdgeDegree(f) > 0 || f < int(e)) {
				return uint32(f)
			}
		}
		return e
	}
	for _, v := range h.EdgeIncidence(int(e)) {
		for _, f := range h.NodeIncidence(int(v)) {
			if f != e {
				cnt[f]++
			}
		}
	}
	best := e
	for f, c := range cnt {
		if c != size {
			continue // f does not contain all of e
		}
		df := h.EdgeDegree(int(f))
		if df > size || (df == size && f < e) {
			if best == e || f < best {
				best = f
			}
		}
	}
	return best
}

// isToplex decides whether e is maximal. cnt is reusable scratch (cleared
// before use).
func isToplex(h *Hypergraph, e uint32, cnt map[uint32]int) bool {
	clear(cnt)
	size := h.EdgeDegree(int(e))
	if size == 0 {
		// Empty hyperedges are contained in every hyperedge; an empty
		// hyperedge is a toplex only if it is the smallest-ID empty edge and
		// no non-empty edge exists.
		for f := 0; f < h.NumEdges(); f++ {
			if f != int(e) && (h.EdgeDegree(f) > 0 || f < int(e)) {
				return false
			}
		}
		return true
	}
	for _, v := range h.EdgeIncidence(int(e)) {
		for _, f := range h.NodeIncidence(int(v)) {
			if f != e {
				cnt[f]++
			}
		}
	}
	for f, c := range cnt {
		if c != size {
			continue // f does not contain all of e
		}
		df := h.EdgeDegree(int(f))
		if df > size {
			return false // strict superset
		}
		if df == size && f < e {
			return false // duplicate set; smaller ID wins
		}
	}
	return true
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
