package graph

import "nwhy/internal/parallel"

// teng is the engine the package tests run on; wrapper funcs restore the
// engine-less signatures the table-driven tests were written against.
var teng = parallel.SharedEngine()

func tBFSTopDown(g *Graph, src int) *BFSResult  { return BFSTopDown(teng, g, src) }
func tBFSBottomUp(g *Graph, src int) *BFSResult { return BFSBottomUp(teng, g, src) }
func tBFSDirectionOptimizing(g *Graph, src int) *BFSResult {
	return BFSDirectionOptimizing(teng, g, src)
}

func tCCLabelPropagation(g *Graph) []uint32 { return CCLabelPropagation(teng, g) }
func tCCAfforest(g *Graph) []uint32         { return CCAfforest(teng, g) }
