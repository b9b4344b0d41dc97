package graph

import (
	"nwhy/internal/parallel"
)

// Diameter computes the exact diameter (longest shortest path, per
// component): the largest Eccentricity. O(n·m/64); use ApproxDiameter for
// large graphs.
func Diameter(eng *parallel.Engine, g *Graph) int {
	d := 0.0
	for _, e := range Eccentricity(eng, g) {
		d = max(d, e)
	}
	return int(d)
}

// ApproxDiameter lower-bounds the diameter with iterated double sweeps:
// BFS from a start vertex, then from the farthest vertex found, repeating
// for rounds. The bound is exact on trees and usually tight on real-world
// graphs; it never exceeds the true diameter.
func ApproxDiameter(g *Graph, start, rounds int) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	dist := make([]int32, n)
	var queue []uint32
	best := 0
	src := start
	for r := 0; r < rounds; r++ {
		queue = bfsDistances(g, src, dist, queue)
		far, farDist := src, int32(0)
		for _, v := range queue {
			if dist[v] > farDist {
				far, farDist = int(v), dist[v]
			}
		}
		if int(farDist) > best {
			best = int(farDist)
		}
		if far == src {
			break
		}
		src = far
	}
	return best
}

// Radius computes the exact radius: the minimum eccentricity over vertices
// in the largest component (vertices with no neighbors are skipped so a
// lone isolated vertex does not force radius 0).
func Radius(eng *parallel.Engine, g *Graph) int {
	ecc := Eccentricity(eng, g)
	radius := -1
	for v, e := range ecc {
		if g.Degree(v) == 0 {
			continue
		}
		if radius == -1 || int(e) < radius {
			radius = int(e)
		}
	}
	if radius == -1 {
		return 0
	}
	return radius
}
