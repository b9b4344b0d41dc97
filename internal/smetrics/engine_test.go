package smetrics

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/slinegraph"
	"nwhy/internal/sparse"
)

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the tests were written against and discard the
// (always-nil without cancellation) errors.
var teng = parallel.SharedEngine()

func tBuild(h *core.Hypergraph, s int) *SLineGraph {
	l, _ := Build(teng, h, s)
	return l
}

func tBuildWith(h *core.Hypergraph, s int, pairs []sparse.Edge) *SLineGraph {
	return BuildWith(teng, h, s, pairs)
}

func tBuildWeighted(h *core.Hypergraph, s int) *WeightedSLineGraph {
	l, _ := BuildWeighted(teng, h, s)
	return l
}

func tQueueIntersection(in slinegraph.Input, s int, o slinegraph.Options) []sparse.Edge {
	o.Counter, o.Schedule = slinegraph.IntersectionCounter, slinegraph.QueueSchedule
	r, _ := slinegraph.Construct(teng, in, s, o)
	return r
}
