package slinegraph

import "nwhy/internal/parallel"

// This file is the kernel's fourth axis — Prune — the companion paper's
// algorithmic cuts (Liu et al., arXiv:2010.11448): the degree prefilter,
// the union-find connected short-circuit, and the toplex-only restriction.
// The axis resolves from whether the run feeds a forest, so heuristics that
// drop pairs never leak into runs that consume the pairs. The level decides
// what the run's view holds (view.go) and whether the walk consults the
// forest (kernel.connected).

// DegreeStats summarizes the hyperedge degree distribution of an input. The
// kernel no longer reads it (Options.Stats): it stays, with
// ComputeDegreeStats, only because bench/ binds both, and ROADMAP item 2
// deletes them together with the benchmark's slinegraph.degree_stats step.
type DegreeStats struct {
	// Mean is the average hyperedge degree over the work list.
	Mean float64
	// Max is the maximum hyperedge degree.
	Max int
}

// ComputeDegreeStats computes DegreeStats engine-parallel over in's
// hyperedges. No kernel path calls it (see DegreeStats).
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
