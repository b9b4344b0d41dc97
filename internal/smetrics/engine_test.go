package smetrics

import (
	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/slinegraph"
)

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the tests were written against and discard the
// (always-nil without cancellation) errors.
var teng = parallel.SharedEngine()

func tBuild(h *core.Hypergraph, s int) *SLineGraph {
	l, _ := Build(teng, h, s)
	return l
}

func tBuildWeighted(h *core.Hypergraph, s int) *WeightedSLineGraph {
	csr, _ := slinegraph.ConstructWeightedCSR(teng, slinegraph.FromHypergraph(h), s, slinegraph.Options{})
	l, _ := BuildWeightedCSR(teng, h, s, csr)
	return l
}
