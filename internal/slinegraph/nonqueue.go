package slinegraph

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// Naive computes the s-line graph by set-intersecting every hyperedge pair:
// the O(|E|² · Δ) baseline every other algorithm is measured against.
func Naive(eng *parallel.Engine, h *core.Hypergraph, s int) ([]sparse.Edge, error) {
	ne := h.NumEdges()
	tls := parallel.NewTLSFor(eng, func() []sparse.Edge { return nil })
	eng.ForN(ne, func(w, lo, hi int) {
		buf := tls.Get(w)
		for i := lo; i < hi; i++ {
			if h.EdgeDegree(i) < s {
				continue
			}
			ri := h.EdgeIncidence(i)
			for j := i + 1; j < ne; j++ {
				if h.EdgeDegree(j) < s {
					continue
				}
				if _, ok := countCommonGE(ri, h.EdgeIncidence(j), s); ok {
					*buf = append(*buf, sparse.Edge{U: uint32(i), V: uint32(j)})
				}
			}
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return canonPairs(eng, parallel.FlattenTLS(nil, tls, nil)), nil
}

// ensemble is the multi-threshold emit mode over the kernel: one exact-count
// pass at the minimum threshold, with each surviving pair emitted into every
// bucket whose threshold its overlap meets.
func ensemble(eng *parallel.Engine, in Input, ss []int, o Options) (map[int][]sparse.Edge, error) {
	if len(ss) == 0 {
		return nil, eng.Err()
	}
	smin := ss[0]
	for _, s := range ss {
		if s < smin {
			smin = s
		}
	}
	type buckets map[int][]sparse.Edge
	tls := parallel.NewTLSFor(eng, func() buckets {
		b := buckets{}
		for _, s := range ss {
			b[s] = nil
		}
		return b
	})
	if err := construct(eng, in, smin, o, true, func(w int, e, f uint32, c int32) {
		b := *tls.Get(w)
		for _, s := range ss {
			if int(c) >= s {
				b[s] = append(b[s], sparse.Edge{U: e, V: f})
			}
		}
	}); err != nil {
		return nil, err
	}
	out := map[int][]sparse.Edge{}
	for _, s := range ss {
		var all []sparse.Edge
		tls.All(func(b *buckets) { all = append(all, (*b)[s]...) })
		out[s] = canonPairs(eng, all)
	}
	return out, nil
}

// Ensemble computes the s-line graphs for every s in ss in a single
// counting pass (Liu et al., IPDPS'22): overlap tallies are computed once
// and each pair is emitted into every bucket whose threshold it meets.
func Ensemble(eng *parallel.Engine, h *core.Hypergraph, ss []int, o Options) (map[int][]sparse.Edge, error) {
	o.Counter = HashmapCounter
	o.Schedule = DefaultSchedule
	return ensemble(eng, FromHypergraph(h), ss, o)
}

// EnsembleQueue computes the s-line graphs for every s in ss in one
// queue-driven counting pass — the ensemble construction generalized to
// arbitrary ID spaces via the Input interface, like Algorithm 1.
func EnsembleQueue(eng *parallel.Engine, in Input, ss []int, o Options) (map[int][]sparse.Edge, error) {
	o.Counter = HashmapCounter
	o.Schedule = QueueSchedule
	return ensemble(eng, in, ss, o)
}

// CliqueExpansion computes the clique-expansion graph of h: each hyperedge
// becomes a clique over its hypernodes. Per the paper, this is exactly the
// 1-line graph of the dual hypergraph (Listing 2's
// to_two_graph_hashmap_cyclic(hypernodes, hyperedges, ..., 1, ...)). Vertex
// IDs of the result are hypernode IDs.
func CliqueExpansion(eng *parallel.Engine, h *core.Hypergraph, o Options) ([]sparse.Edge, error) {
	o.Counter = HashmapCounter
	return Construct(eng, FromHypergraph(h.Dual()), 1, o)
}
