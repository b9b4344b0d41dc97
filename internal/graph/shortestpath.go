package graph

import (
	"nwhy/internal/parallel"
)

// grabScratch pops the *T stashed under key in worker w's arena on eng, or
// returns a zero T for its ensure method to size. Callers own the scratch
// until they Stash it back under the same key, in the state ensure left it.
func grabScratch[T any](eng *parallel.Engine, w int, key string) *T {
	if v, ok := eng.Grab(w, key); ok {
		return v.(*T)
	}
	return new(T)
}

// Arena keys of the traversal scratch types.
const (
	pathScratchKey          = "graph.shortestpath"
	sweepScratchKey         = "graph.sweep"
	bitLevelStateKey        = "graph.sweep.bits"
	brandesStateKey         = "graph.brandes"
	bitBrandesStateKey      = "graph.brandes.bits"
	weightedBrandesStateKey = "graph.brandes.weighted"
)

// pathScratch is the state of one ShortestPath query. mark is all zero
// between queries; a query zeroes only what it marked.
type pathScratch struct {
	mark    []int32  // 0 unvisited; d+1 at depth d from src; -(d+1) at depth d from dst
	parent  []uint32 // search-tree parent of every marked vertex; an endpoint is its own
	visited []uint32 // every marked vertex; each expanded level is one contiguous run
}

func (sc *pathScratch) ensure(n int) {
	if len(sc.mark) < n {
		sc.mark, sc.parent = make([]int32, n), make([]uint32, n)
	}
}

func (sc *pathScratch) reset() {
	for _, v := range sc.visited {
		sc.mark[v] = 0
	}
	sc.visited = sc.visited[:0]
}

// ShortestPath returns one shortest path from src to dst as a vertex
// sequence (inclusive; hop distance = len-1), or nil if dst is unreachable
// or eng was cancelled. It is a level-synchronous bidirectional BFS that
// always expands the side whose frontier has the smaller degree sum and
// stops at the first arc joining the two searches: with src explored to
// depth ds, dst to dt and no such arc seen, the distance is at least
// ds+dt+1, which an arc out of either frontier into the other side realizes.
// It runs serially on the caller and costs the arcs it touches, not O(n):
// scratch comes from eng's arena and is reset along the visited list.
func ShortestPath(eng *parallel.Engine, g *Graph, src, dst int) []uint32 {
	ds, dt := g.Degree(src), g.Degree(dst)
	if src == dst {
		return []uint32{uint32(src)}
	}
	if ds == 0 || dt == 0 {
		return nil
	}
	sc := grabScratch[pathScratch](eng, 0, pathScratchKey)
	sc.ensure(g.NumVertices())
	path := sc.search(eng, g, uint32(src), uint32(dst), ds, dt)
	sc.reset()
	eng.Stash(0, pathScratchKey, sc)
	return path
}

func (sc *pathScratch) search(eng *parallel.Engine, g *Graph, src, dst uint32, ds, dt int) []uint32 {
	mark, parent := sc.mark, sc.parent
	mark[src], mark[dst] = 1, -1
	parent[src], parent[dst] = src, dst
	sc.visited = append(sc.visited, src, dst)
	// Side 0 grows from src, side 1 from dst: its frontier is
	// visited[lo:hi], with degree sum work.
	lo, hi, work := [2]int{0, 1}, [2]int{1, 2}, [2]int{ds, dt}
	for !eng.Cancelled() {
		x := 0
		if work[1] < work[0] {
			x = 1
		}
		frontier := sc.visited[lo[x]:hi[x]]
		next := mark[frontier[0]] + int32(1-2*x) // one level further out on side x
		lo[x], work[x] = len(sc.visited), 0
		for _, u := range frontier {
			for _, v := range g.Row(int(u)) {
				switch m := mark[v]; {
				case m == 0:
					mark[v], parent[v] = next, u
					sc.visited = append(sc.visited, v)
					work[x] += g.Degree(int(v))
				case (m < 0) == (next < 0): // side x's own
				case x == 0:
					return sc.join(u, v)
				default:
					return sc.join(v, u)
				}
			}
		}
		if hi[x] = len(sc.visited); hi[x] == lo[x] {
			return nil // side x's component is exhausted
		}
	}
	return nil
}

// join assembles the path through the arc (s, t), s marked from src and t
// from dst, by walking both parent chains (the endpoints are their own
// parents).
func (sc *pathScratch) join(s, t uint32) []uint32 {
	ds, dt := int(sc.mark[s]-1), int(-sc.mark[t]-1)
	path := make([]uint32, ds+dt+2)
	for i := ds; i >= 0; i, s = i-1, sc.parent[s] {
		path[i] = s
	}
	for i := ds + 1; i < len(path); i, t = i+1, sc.parent[t] {
		path[i] = t
	}
	return path
}
