package graph

import (
	"testing"
)

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return randomGraph(20000, 200000, 1)
}

func BenchmarkBFSVariants(b *testing.B) {
	g := benchGraph(b)
	for name, fn := range map[string]func(*Graph, int) *BFSResult{
		"topdown":  tBFSTopDown,
		"bottomup": tBFSBottomUp,
		"diropt":   tBFSDirectionOptimizing,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = fn(g, 0)
			}
		})
	}
}

func BenchmarkCCVariants(b *testing.B) {
	g := benchGraph(b)
	for name, fn := range map[string]func(*Graph) []uint32{
		"labelprop": tCCLabelPropagation,
		"afforest":  tCCAfforest,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = fn(g)
			}
		})
	}
}

func BenchmarkDeltaStepping(b *testing.B) {
	g := weightedRandomGraph(10000, 80000, 2)
	b.Run("auto-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = DeltaStepping(teng, g, 0, 0)
		}
	})
}

func BenchmarkPageRank(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		_ = PageRank(teng, g, 0.85, 1e-8, 100)
	}
}
