package graph

import (
	"math/rand"
	"testing"

	"nwhy/internal/sparse"
)

// FuzzShortestPath is the differential pin of the bidirectional point
// query: on random small symmetric graphs — sparse enough to be
// disconnected and to leave isolated endpoints, optionally with self-loops
// and a hub adjacent to everything — the distance of every ordered pair
// (src == dst included) equals the one-BFS-per-source distance, and every
// returned path runs from src to dst over stored arcs in distance+1
// vertices. The scratch the queries share must come back all-zero.
func FuzzShortestPath(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(10), false, false)
	f.Add(int64(2), uint8(20), uint8(60), true, false)
	f.Add(int64(-5), uint8(7), uint8(3), false, true)
	f.Add(int64(9), uint8(1), uint8(0), true, true)
	f.Add(int64(33), uint8(23), uint8(0), false, false) // all isolated
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, hub, loops bool) {
		n := 1 + int(nRaw%24)
		rng := rand.New(rand.NewSource(seed))
		el := sparse.NewEdgeList(n)
		for i := int(mRaw) % (2*n + 1); i > 0; i-- {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u != v || loops {
				el.Add(u, v)
			}
		}
		if hub {
			for v := 1; v < n; v++ {
				el.Add(0, uint32(v))
			}
		}
		g := FromEdgeList(el, true)

		dist := make([]int32, n)
		for src := 0; src < n; src++ {
			bfsDistances(g, src, dist, nil)
			for dst := 0; dst < n; dst++ {
				path := ShortestPath(teng, g, src, dst)
				if got := len(path) - 1; got != int(dist[dst]) {
					t.Fatalf("seed=%d n=%d: distance %d->%d = %d (path %v), want %d", seed, n, src, dst, got, path, dist[dst])
				}
				if path == nil {
					continue
				}
				if path[0] != uint32(src) || path[len(path)-1] != uint32(dst) {
					t.Fatalf("seed=%d n=%d: path %d->%d = %v has wrong endpoints", seed, n, src, dst, path)
				}
				for i := 0; i+1 < len(path); i++ {
					if !g.HasEdge(int(path[i]), path[i+1]) {
						t.Fatalf("seed=%d n=%d: path %d->%d = %v steps over a missing arc at %d", seed, n, src, dst, path, i)
					}
				}
			}
		}
		checkArenaScratchClean(t, teng)
	})
}
