package slinegraph

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the table-driven tests were written against and
// discard the (always-nil without cancellation) errors. The four named
// after the paper's algorithms pin the Counter × Schedule pair each name
// stands for.
var teng = parallel.SharedEngine()

func tPinned(in Input, s int, o Options, c Counter, sched Schedule) []sparse.Edge {
	o.Counter, o.Schedule = c, sched
	r, _ := Construct(teng, in, s, o)
	return r
}

func tNaive(h *core.Hypergraph, s int) []sparse.Edge {
	r, _ := Naive(teng, h, s)
	return r
}

func tIntersection(h *core.Hypergraph, s int, o Options) []sparse.Edge {
	return tPinned(FromHypergraph(h), s, o, IntersectionCounter, BlockedSchedule)
}

func tHashmap(h *core.Hypergraph, s int, o Options) []sparse.Edge {
	return tPinned(FromHypergraph(h), s, o, HashmapCounter, BlockedSchedule)
}

func tEnsemble(h *core.Hypergraph, ss []int, o Options) map[int][]sparse.Edge {
	r, _ := Ensemble(teng, h, ss, o)
	return r
}

func tEnsembleQueue(in Input, ss []int, o Options) map[int][]sparse.Edge {
	r, _ := EnsembleQueue(teng, in, ss, o)
	return r
}

func tCliqueExpansion(h *core.Hypergraph, o Options) []sparse.Edge {
	r, _ := CliqueExpansion(teng, h, o)
	return r
}

func tQueueHashmap(in Input, s int, o Options) []sparse.Edge {
	return tPinned(in, s, o, HashmapCounter, QueueSchedule)
}

func tQueueIntersection(in Input, s int, o Options) []sparse.Edge {
	return tPinned(in, s, o, IntersectionCounter, QueueSchedule)
}

func tSComponentsDirect(in Input, s int, o Options) []uint32 {
	r, _ := SComponentsDirect(teng, in, s, o)
	return r
}

func tHashmapWeighted(h *core.Hypergraph, s int, o Options) []WeightedPair {
	o.Counter, o.Schedule = HashmapCounter, BlockedSchedule
	r, _ := ConstructWeighted(teng, FromHypergraph(h), s, o)
	return r
}

func tQueueHashmapWeighted(in Input, s int, o Options) []WeightedPair {
	o.Counter, o.Schedule = HashmapCounter, QueueSchedule
	r, _ := ConstructWeighted(teng, in, s, o)
	return r
}
