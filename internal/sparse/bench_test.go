package sparse

import (
	"math/rand"
	"testing"
)

func benchPairs(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Edge, m)
	for i := range pairs {
		pairs[i] = Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	return pairs
}

// benchShapes are the two incidence lists the build benchmarks run on: the
// end-to-end benchmark's ingest shape — 100 000 hyperedges of 10 uniform
// members over 100 000 hypernodes, in hyperedge order as a file lists them —
// and a shuffled power-law list of the same volume, where a few rows and
// columns hold most entries and some pairs repeat.
func benchShapes() map[string]*BiEdgeList {
	rng := rand.New(rand.NewSource(1))
	uniform := NewBiEdgeList(100000, 100000)
	for e := 0; e < uniform.N0; e++ {
		for k := 0; k < 10; k++ {
			uniform.Edges = append(uniform.Edges, Edge{U: uint32(e), V: uint32(rng.Intn(uniform.N1))})
		}
	}
	powerLaw := NewBiEdgeList(100000, 100000)
	zipf := rand.NewZipf(rng, 1.6, 1, uint64(powerLaw.N0-1))
	for i := 0; i < 1000000; i++ {
		powerLaw.Edges = append(powerLaw.Edges, Edge{U: uint32(zipf.Uint64()), V: uint32(zipf.Uint64())})
	}
	return map[string]*BiEdgeList{"uniform": uniform, "powerlaw": powerLaw}
}

func BenchmarkCSRBuild(b *testing.B) {
	for name, bel := range benchShapes() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = BiAdjacency(bel)
			}
		})
	}
}

func BenchmarkCSRTranspose(b *testing.B) {
	for name, bel := range benchShapes() {
		edges, _ := BiAdjacency(bel)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = edges.Transpose()
			}
		})
	}
}

func BenchmarkCSRDegrees(b *testing.B) {
	c := FromPairs(50000, 50000, benchPairs(50000, 500000, 3), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Degrees()
	}
}
