package slinegraph

import (
	"nwhy/internal/parallel"
	"nwhy/internal/unionfind"
)

// This file is the kernel's fourth axis — Prune — the companion paper's
// algorithmic cuts (Liu et al., arXiv:2010.11448): the degree prefilter,
// the union-find connected short-circuit, and the toplex-only restriction.
// The axis resolves from whether the run feeds a forest, so heuristics that
// drop pairs never leak into runs that consume the pairs.

// DegreeStats summarizes the hyperedge degree distribution of an input. It
// feeds the resolveAxes heuristics; the facade memoizes one per snapshot
// epoch (Options.Stats) so repeated constructions skip the rescan.
type DegreeStats struct {
	// Mean is the average hyperedge degree over the work list.
	Mean float64
	// Max is the maximum hyperedge degree.
	Max int
}

// ComputeDegreeStats computes DegreeStats engine-parallel over in's
// hyperedges.
func ComputeDegreeStats(eng *parallel.Engine, in Input) DegreeStats {
	ids := in.EdgeIDs()
	type acc struct{ total, max int }
	tls := parallel.NewTLSFor(eng, func() acc { return acc{} })
	eng.ForN(len(ids), func(w, lo, hi int) {
		a := tls.Get(w)
		for i := lo; i < hi; i++ {
			d := in.EdgeDegree(ids[i])
			a.total += d
			if d > a.max {
				a.max = d
			}
		}
	})
	var st DegreeStats
	total := 0
	tls.All(func(a *acc) {
		total += a.total
		if a.max > st.Max {
			st.Max = a.max
		}
	})
	if len(ids) > 0 {
		st.Mean = float64(total) / float64(len(ids))
	}
	return st
}

// resolvePrune turns AutoPrune into a concrete heuristic and clamps explicit
// choices to what is sound: the connected short-circuit and the toplex
// restriction change which pairs are emitted, so they require a run feeding
// an in-package forest; anywhere else they degrade to the result-identical
// degree prefilter.
func resolvePrune(o Options) Prune {
	p := o.Prune
	if p == AutoPrune {
		p = ToplexPrune // every cut the two clamps below leave standing
	}
	if p >= ConnectivityPrune && o.forest == nil {
		p = DegreePrune
	}
	if p == ToplexPrune && o.Subset == nil {
		p = ConnectivityPrune
	}
	return p
}

// pruneState carries one run's pruning machinery through the kernel: the
// eligibility bitset counters consult instead of per-candidate degree
// checks, and the union-find forest backing the connected short-circuit.
// The zero value (NoPrune) falls back to the legacy per-candidate checks.
type pruneState struct {
	eligible *parallel.Bitset
	forest   *unionfind.Forest
}

// ok reports whether candidate f participates in this run: degree ≥ s, and
// a member of the Subset when the run is toplex-restricted.
func (p *pruneState) ok(in Input, f uint32, s int) bool {
	if p.eligible == nil {
		return in.EdgeDegree(f) >= s
	}
	return p.eligible.Get(int(f))
}

// connected reports whether (e, f) is already known s-connected, in which
// case counting the pair proves nothing new. A false negative costs one
// redundant count; a false positive cannot happen (SameSet only affirms
// established connectivity), so no component merge is ever lost.
func (p *pruneState) connected(e, f uint32) bool {
	return p.forest != nil && p.forest.SameSet(e, f)
}

// buildPrune resolves the Prune axis and materializes the run's state: the
// eligibility bitset over the ID space and the filtered work span, both
// built engine-parallel once up front so every schedule and counter skips
// sub-s (and, under ToplexPrune, non-maximal) hyperedges entirely.
func buildPrune(eng *parallel.Engine, in Input, s int, o Options, ids []uint32) (*pruneState, []uint32) {
	p := resolvePrune(o)
	if p == NoPrune {
		return &pruneState{}, ids
	}
	work := ids
	if p == ToplexPrune {
		work = append([]uint32(nil), o.Subset...)
	}
	bits := parallel.NewBitset(in.IDSpace())
	eng.ForN(len(work), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if e := work[i]; in.EdgeDegree(e) >= s {
				bits.Set(int(e))
			}
		}
	})
	work = filterSpan(eng, work, func(e uint32) bool { return bits.Get(int(e)) })
	ps := &pruneState{eligible: bits}
	if p >= ConnectivityPrune {
		ps.forest = o.forest
	}
	return ps, work
}

// filterSpan compacts ids to the elements passing keep, engine-parallel and
// order-preserving: per-chunk counts, an exclusive scan (serial — one entry
// per 4096 ids), then a scatter.
func filterSpan(eng *parallel.Engine, ids []uint32, keep func(uint32) bool) []uint32 {
	n := len(ids)
	if n == 0 {
		return ids
	}
	const chunk = 4096
	nchunks := (n + chunk - 1) / chunk
	counts := make([]int64, nchunks)
	eng.ForEach(nchunks, func(c int) {
		lo, hi := c*chunk, min((c+1)*chunk, n)
		k := int64(0)
		for i := lo; i < hi; i++ {
			if keep(ids[i]) {
				k++
			}
		}
		counts[c] = k
	})
	var total int64
	for c, k := range counts {
		counts[c], total = total, total+k
	}
	if total == int64(n) {
		return ids // nothing filtered; skip the copy
	}
	out := make([]uint32, total)
	eng.ForEach(nchunks, func(c int) {
		lo, hi := c*chunk, min((c+1)*chunk, n)
		at := counts[c]
		for i := lo; i < hi; i++ {
			if keep(ids[i]) {
				out[at] = ids[i]
				at++
			}
		}
	})
	return out
}
