package graph

import (
	"math/rand"

	"nwhy/internal/frontier"
	"nwhy/internal/parallel"
)

// CCLabelPropagation computes connected components by minimum-label
// propagation: every vertex starts with its own ID as label, and each round
// the frontier of vertices whose label changed propagates its minimum over
// the incident edges (an atomic write-min visit under frontier.EdgeMap)
// until the frontier drains. Simple, parallel, and the algorithm Hygra's CC
// (and NWHy's HyperCC) is built on; the first rounds run in pull direction
// (the frontier is the whole graph), the convergence tail in push.
func CCLabelPropagation(eng *parallel.Engine, g *Graph) []uint32 {
	n := g.NumVertices()
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
	}
	st := frontier.NewState(int64(g.NumArcs()), frontier.Auto)
	st.Dedup = true
	st.Revisits = true
	f := frontier.All(eng, n)
	for !f.Empty() && !eng.Cancelled() {
		f = st.EdgeMap(eng, f, n, g.Row, g.Row,
			func(u, v uint32) bool {
				return parallel.MinU32(&comp[v], parallel.LoadU32(&comp[u]))
			}, nil)
	}
	f.Release(eng)
	return comp
}

// afforestNeighborRounds is the number of initial neighbor-sampling rounds
// Afforest performs before skipping the largest component.
const afforestNeighborRounds = 2

// CCAfforest computes connected components with the Afforest algorithm
// (Sutton, Ben-Nun, Barak 2018): link the first k neighbors of every vertex,
// identify the (almost surely giant) most frequent component by sampling,
// then finish the remaining edges only for vertices outside that component —
// skipping most of the edge list on real-world graphs.
func CCAfforest(eng *parallel.Engine, g *Graph) []uint32 {
	n := g.NumVertices()
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
	}

	for r := 0; r < afforestNeighborRounds && !eng.Cancelled(); r++ {
		eng.ForN(n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				row := g.Row(u)
				if r < len(row) {
					link(uint32(u), row[r], comp)
				}
			}
		})
		compress(eng, comp)
	}

	giant := sampleFrequentComponent(comp)

	eng.ForN(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if parallel.LoadU32(&comp[u]) == giant {
				continue
			}
			row := g.Row(u)
			for k := afforestNeighborRounds; k < len(row); k++ {
				link(uint32(u), row[k], comp)
			}
		}
	})
	compress(eng, comp)
	return comp
}

// link unites the components containing u and v with lock-free hooking by
// minimum root.
func link(u, v uint32, comp []uint32) {
	p1 := parallel.LoadU32(&comp[u])
	p2 := parallel.LoadU32(&comp[v])
	for p1 != p2 {
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := parallel.LoadU32(&comp[high])
		if pHigh == low {
			return
		}
		if pHigh == high && parallel.CASU32(&comp[high], high, low) {
			return
		}
		p1 = parallel.LoadU32(&comp[parallel.LoadU32(&comp[high])])
		p2 = parallel.LoadU32(&comp[low])
	}
}

// compress performs full path compression so every label points at its root.
func compress(eng *parallel.Engine, comp []uint32) {
	eng.ForN(len(comp), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for {
				c := parallel.LoadU32(&comp[u])
				cc := parallel.LoadU32(&comp[c])
				if c == cc {
					break
				}
				parallel.StoreU32(&comp[u], cc)
			}
		}
	})
}

// sampleFrequentComponent estimates the most common component label.
func sampleFrequentComponent(comp []uint32) uint32 {
	const samples = 1024
	rng := rand.New(rand.NewSource(42))
	counts := map[uint32]int{}
	n := len(comp)
	if n == 0 {
		return 0
	}
	for i := 0; i < samples; i++ {
		counts[comp[rng.Intn(n)]]++
	}
	best, bestCount := uint32(0), -1
	for c, k := range counts {
		if k > bestCount {
			best, bestCount = c, k
		}
	}
	return best
}

// NumComponents counts distinct labels in a component assignment.
func NumComponents(comp []uint32) int {
	seen := map[uint32]bool{}
	for _, c := range comp {
		seen[c] = true
	}
	return len(seen)
}

// CanonicalizeComponents renames component labels to the minimum vertex ID in
// each component, making assignments from different algorithms comparable.
func CanonicalizeComponents(comp []uint32) []uint32 {
	minOf := map[uint32]uint32{}
	for v, c := range comp {
		if m, ok := minOf[c]; !ok || uint32(v) < m {
			minOf[c] = uint32(v)
		}
	}
	out := make([]uint32, len(comp))
	for v, c := range comp {
		out[v] = minOf[c]
	}
	return out
}
