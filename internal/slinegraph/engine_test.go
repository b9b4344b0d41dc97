package slinegraph

import (
	"slices"

	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the table-driven tests were written against and
// discard the (always-nil without cancellation) errors. The four named
// after the paper's algorithms pin the Counter each name stands for.
var teng = parallel.SharedEngine()

func tPinned(in Input, s int, o Options, c Counter) []sparse.Edge {
	o.Counter = c
	r, _ := Construct(teng, in, s, o)
	return r
}

func tNaive(h *core.Hypergraph, s int) []sparse.Edge {
	r, _ := Naive(teng, h, s)
	return r
}

func tIntersection(h *core.Hypergraph, s int, o Options) []sparse.Edge {
	return tPinned(FromHypergraph(h), s, o, IntersectionCounter)
}

func tHashmap(h *core.Hypergraph, s int, o Options) []sparse.Edge {
	return tPinned(FromHypergraph(h), s, o, HashmapCounter)
}

// tEnsemble is what the facade's ensembles are made of: the exact base at
// min(ss), then one KeepAtLeast per s, read off as pair lists.
func tEnsemble(in Input, ss []int) map[int][]sparse.Edge {
	base := tWeighted(in, slices.Min(ss), HashmapCounter)
	out := map[int][]sparse.Edge{}
	for _, s := range ss {
		member, _ := base.KeepAtLeast(teng, float64(s))
		out[s] = member.UpperTriangle()
	}
	return out
}

func tCliqueExpansion(h *core.Hypergraph, o Options) []sparse.Edge {
	r, _ := CliqueExpansion(teng, h, o)
	return r
}

func tQueueHashmap(in Input, s int, o Options) []sparse.Edge {
	return tPinned(in, s, o, HashmapCounter)
}

func tQueueIntersection(in Input, s int, o Options) []sparse.Edge {
	return tPinned(in, s, o, IntersectionCounter)
}

func tSComponentsDirect(in Input, s int, o Options) []uint32 {
	r, _ := SComponentsDirect(teng, in, s, o)
	return r
}

func tWeighted(in Input, s int, c Counter) *sparse.CSR {
	r, _ := ConstructWeightedCSR(teng, in, s, Options{Counter: c})
	return r
}
