package core

import (
	"math"

	"nwhy/internal/parallel"
)

// HyperPageRank computes PageRank directly on the hypergraph via the
// two-step random walk of the bipartite structure: a walker at a hypernode
// picks one of its hyperedges uniformly, then one of that hyperedge's
// members uniformly. Returned scores are over hypernodes and sum to ~1.
// Hypernodes in no hyperedge are dangling; their mass is redistributed
// uniformly. This is the hypergraph PageRank of the MESH / HyperX algorithm
// suites, computed without materializing a projection.
func HyperPageRank(eng *parallel.Engine, h *Hypergraph, damping, tol float64, maxIter int) ([]float64, error) {
	nv, ne := h.NumNodes(), h.NumEdges()
	if nv == 0 {
		return nil, eng.Err()
	}
	rank := make([]float64, nv)
	next := make([]float64, nv)
	edgeMass := make([]float64, ne)
	inv := 1 / float64(nv)
	for i := range rank {
		rank[i] = inv
	}
	// Degrees are read off the row pointers: precomputing them is a scan on
	// the shared pool, not on eng.
	for iter := 0; iter < maxIter; iter++ {
		if err := eng.Err(); err != nil {
			return nil, err
		}
		// Step 1: push node mass onto hyperedges (rank/deg per incidence).
		dangling := parallel.ReduceWith(eng, nv, 0.0, func(lo, hi int, acc float64) float64 {
			for v := lo; v < hi; v++ {
				if h.Nodes.Degree(v) == 0 {
					acc += rank[v]
				}
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
		eng.ForN(ne, func(_, lo, hi int) {
			for e := lo; e < hi; e++ {
				sum := 0.0
				for _, v := range h.Edges.Row(e) {
					sum += rank[v] / float64(h.Nodes.Degree(int(v)))
				}
				edgeMass[e] = sum
			}
		})
		// Step 2: spread hyperedge mass uniformly over members.
		base := (1-damping)*inv + damping*dangling*inv
		eng.ForN(nv, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, e := range h.Nodes.Row(v) {
					if h.Edges.Degree(int(e)) > 0 {
						sum += edgeMass[e] / float64(h.Edges.Degree(int(e)))
					}
				}
				next[v] = base + damping*sum
			}
		})
		delta := parallel.ReduceWith(eng, nv, 0.0, func(lo, hi int, acc float64) float64 {
			for v := lo; v < hi; v++ {
				acc += math.Abs(next[v] - rank[v])
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return rank, nil
}

// HyperCoreness computes the hypergraph k-core number of every hypernode
// under Hygra's peeling semantics: repeatedly remove the hypernode with the
// fewest live hyperedges; removing it kills all its live hyperedges, which
// decrements the live-degree of every other member. The core number of v is
// the largest k such that v survives when all nodes of live-degree < k have
// been peeled.
func HyperCoreness(h *Hypergraph) []int {
	nv, ne := h.NumNodes(), h.NumEdges()
	deg := h.NodeDegrees() // live hyperedge count per node
	aliveEdge := make([]bool, ne)
	for e := range aliveEdge {
		aliveEdge[e] = true
	}
	core := make([]int, nv)
	removed := make([]bool, nv)

	// Bucket queue over degrees.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]uint32, maxDeg+1)
	for v, d := range deg {
		buckets[d] = append(buckets[d], uint32(v))
	}
	level := 0
	for processed := 0; processed < nv; {
		// Find the lowest non-empty bucket at or below the current level,
		// or advance the level.
		adv := true
		for d := 0; d <= level && d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				v := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if removed[v] || deg[v] != d {
					continue // stale entry
				}
				removed[v] = true
				core[v] = level
				processed++
				for _, e := range h.Nodes.Row(int(v)) {
					if !aliveEdge[e] {
						continue
					}
					aliveEdge[e] = false
					for _, u := range h.Edges.Row(int(e)) {
						if !removed[u] {
							deg[u]--
							buckets[deg[u]] = append(buckets[deg[u]], u)
						}
					}
				}
				adv = false
				break
			}
			if !adv {
				break
			}
		}
		if adv {
			level++
		}
	}
	return core
}
