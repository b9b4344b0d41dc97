package core

import "nwhy/internal/parallel"

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the table-driven tests were written against and
// discard the (always-nil without cancellation) errors.
var teng = parallel.SharedEngine()

func tHyperBFSTopDown(h *Hypergraph, src int) *HyperBFSResult {
	r, _ := HyperBFSTopDown(teng, h, src)
	return r
}

func tHyperBFSBottomUp(h *Hypergraph, src int) *HyperBFSResult {
	r, _ := HyperBFSBottomUp(teng, h, src)
	return r
}

func tHyperBFSDirectionOptimizing(h *Hypergraph, src int) *HyperBFSResult {
	r, _ := HyperBFSDirectionOptimizing(teng, h, src)
	return r
}

func tAdjoinBFS(a *AdjoinGraph, src int) *HyperBFSResult {
	r, _ := AdjoinBFS(teng, a, src)
	return r
}

func tHyperCC(h *Hypergraph) *HyperCCResult {
	r, _ := HyperCC(teng, h)
	return r
}

func tAdjoinCC(a *AdjoinGraph, alg AdjoinCCAlgorithm) *HyperCCResult {
	r, _ := AdjoinCC(teng, a, alg)
	return r
}

func tHyperPageRank(h *Hypergraph, damping, tol float64, maxIter int) []float64 {
	r, _ := HyperPageRank(teng, h, damping, tol, maxIter)
	return r
}

func tBuildHyperTree(h *Hypergraph, src int) *HyperTree {
	r, _ := BuildHyperTree(teng, h, src)
	return r
}

func tAdjoin(h *Hypergraph) *AdjoinGraph { return Adjoin(teng, h) }

func tToplexes(h *Hypergraph) []uint32 { return Toplexes(teng, h) }

func tToplexify(h *Hypergraph) *Hypergraph {
	t, _ := Toplexify(teng, h)
	return t
}

func tCollapseEdges(h *Hypergraph) *CollapseResult {
	r, _ := CollapseEdges(teng, h)
	return r
}

func tCollapseNodes(h *Hypergraph) *CollapseResult {
	r, _ := CollapseNodes(teng, h)
	return r
}

func tCollapseNodesAndEdges(h *Hypergraph) (*CollapseResult, [][]uint32) {
	r, classes, _ := CollapseNodesAndEdges(teng, h)
	return r, classes
}
