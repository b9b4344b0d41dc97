package graph

import (
	"math/bits"

	"nwhy/internal/parallel"
)

// bfsDistances runs a sequential BFS from src into dist (reused scratch;
// entries set to -1 first), returning the visit order.
func bfsDistances(g *Graph, src int, dist []int32, queue []uint32) []uint32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], uint32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Row(int(u)) {
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// levelHistogram runs one BFS from src and returns hist[d], the number of
// vertices at hop distance d (hist[0] = 1 is src itself).
func levelHistogram(g *Graph, src int) []int64 {
	dist := make([]int32, g.NumVertices())
	var hist []int64
	for _, v := range bfsDistances(g, src, dist, nil) {
		if int(dist[v]) == len(hist) {
			hist = append(hist, 0)
		}
		hist[dist[v]]++
	}
	return hist
}

// sweepScratch is one worker's state for a batch of up to 64 BFS sources
// advancing together, source i of the batch owning bit i of every word.
// All three word arrays are zero between batches.
type sweepScratch struct {
	seen, front, next []uint64    // per vertex: sources that reached it / have it on the current / next frontier
	cur, nxt, visited []uint32    // the vertices whose front / next / seen word is non-zero
	hist              [64][]int64 // level histogram of each source
}

func (sc *sweepScratch) ensure(n int) {
	if len(sc.seen) < n {
		sc.seen, sc.front, sc.next = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
}

func (sc *sweepScratch) reset() {
	for _, v := range sc.visited {
		sc.seen[v], sc.front[v], sc.next[v] = 0, 0, 0
	}
	sc.cur, sc.nxt, sc.visited = sc.cur[:0], sc.nxt[:0], sc.visited[:0]
}

// run sweeps all levels of the batch, filling sc.hist[i] for source i. A
// level walks its frontier list and those vertices' arcs only, so a long
// thin graph costs what one BFS per source would. It reports false if eng
// was cancelled (observed between levels).
func (sc *sweepScratch) run(eng *parallel.Engine, g *Graph, batch []uint32) bool {
	seen, front, next := sc.seen, sc.front, sc.next
	for i, s := range batch {
		seen[s], front[s] = 1<<i, 1<<i
		sc.cur = append(sc.cur, s)
		sc.visited = append(sc.visited, s)
		sc.hist[i] = append(sc.hist[i][:0], 1)
	}
	for d := 1; len(sc.cur) > 0; d++ {
		if eng.Cancelled() {
			return false
		}
		for _, u := range sc.cur {
			fu := front[u]
			front[u] = 0
			for _, v := range g.Row(int(u)) {
				if nw := fu &^ seen[v]; nw != 0 {
					if next[v] == 0 {
						sc.nxt = append(sc.nxt, v)
					}
					next[v] |= nw
				}
			}
		}
		for _, v := range sc.nxt {
			nw := next[v]
			if seen[v] == 0 {
				sc.visited = append(sc.visited, v)
			}
			seen[v] |= nw
			for ; nw != 0; nw &= nw - 1 {
				i := bits.TrailingZeros64(nw)
				if h := sc.hist[i]; len(h) == d {
					sc.hist[i] = append(h, 1)
				} else {
					h[d]++
				}
			}
		}
		front, next = next, front
		sc.cur, sc.nxt = sc.nxt, sc.cur[:0]
	}
	return true
}

// levelHistograms calls fn(src, hist) for every vertex with a neighbor,
// hist[d] being the number of vertices at hop distance d from src (valid
// during the call only); an isolated vertex's histogram is [1] and is not
// reported. It shares betweenness' component plan: a source in a component
// dense admits runs one BFS over the component's bit matrix
// (bitLevelState), every other source advances with up to 63 others as one
// bit-parallel sweep over the CSR rows (sweepScratch). A grain of the one
// loop is 64 sources of either kind: one sweep batch, or 64 matrix sources
// run one after another. Both kernels count the same levels, so the
// histograms do not depend on the kernel or the worker count. A cancelled
// engine leaves sources unreported; it is observed between grains, sweep
// levels and matrix sources. dense is matrixPays everywhere but in the
// tests and benchmarks that pin one kernel.
func levelHistograms(eng *parallel.Engine, g *Graph, dense func(nc, arcs int) bool, fn func(src int, hist []int64)) {
	n := g.NumVertices()
	plan := planComponents(g, dense)
	var swept, onMatrix []uint32
	for v, c := range plan.comp {
		switch {
		case c == noComponent:
		case plan.matrix[c] != nil:
			onMatrix = append(onMatrix, uint32(v))
		default:
			swept = append(swept, uint32(v))
		}
	}
	sweeps := (len(swept) + 63) / 64
	eng.For(parallel.BlockedGrain(0, sweeps+(len(onMatrix)+63)/64, 1), func(w, lo, hi int) {
		for b := lo; b < hi; b++ {
			if b < sweeps {
				sc := grabScratch[sweepScratch](eng, w, sweepScratchKey)
				sc.ensure(n)
				batch := swept[b*64 : min(b*64+64, len(swept))]
				if sc.run(eng, g, batch) {
					for i, s := range batch {
						fn(int(s), sc.hist[i])
					}
				}
				sc.reset()
				eng.Stash(w, sweepScratchKey, sc)
				continue
			}
			st := grabScratch[bitLevelState](eng, w, bitLevelStateKey)
			first := (b - sweeps) * 64
			for _, src := range onMatrix[first:min(first+64, len(onMatrix))] {
				if eng.Cancelled() {
					break
				}
				m := plan.matrix[plan.comp[src]]
				st.ensure(m.words)
				fn(int(src), st.levels(m, int(plan.local[src])))
			}
			eng.Stash(w, bitLevelStateKey, st)
		}
	})
}

// closeness scores one level histogram by the Wasserman–Faust convention:
// ((r-1)/(n-1)) * ((r-1)/sum) over the r vertices reached.
func closeness(hist []int64, n int) float64 {
	var r, sum int64
	for d, c := range hist {
		r += c
		sum += int64(d) * c
	}
	if r <= 1 || sum == 0 {
		return 0
	}
	c := float64(r-1) / float64(sum)
	if n > 1 {
		c *= float64(r-1) / float64(n-1)
	}
	return c
}

// ClosenessCentrality computes, for every vertex, the closeness
// (n_reachable - 1) / sum-of-distances within its component, following the
// Wasserman–Faust convention of scaling by the reachable fraction:
// ((r-1)/(n-1)) * ((r-1)/sum). Vertices with no reachable peers score 0.
func ClosenessCentrality(eng *parallel.Engine, g *Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	levelHistograms(eng, g, matrixPays, func(src int, hist []int64) { out[src] = closeness(hist, n) })
	return out
}

// ClosenessCentralityOf computes one vertex's closeness with one BFS.
func ClosenessCentralityOf(g *Graph, src int) float64 {
	return closeness(levelHistogram(g, src), g.NumVertices())
}

// HarmonicClosenessCentrality computes sum over other vertices of 1/d(u,v)
// (0 for unreachable pairs), normalized by n-1.
func HarmonicClosenessCentrality(eng *parallel.Engine, g *Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	levelHistograms(eng, g, matrixPays, func(src int, hist []int64) { out[src] = harmonic(hist, n) })
	return out
}

// harmonic scores one level histogram: sum of hist[d]/d, divided by n-1.
func harmonic(hist []int64, n int) float64 {
	sum := 0.0
	for d := 1; d < len(hist); d++ {
		sum += float64(hist[d]) / float64(d)
	}
	if n > 1 {
		sum /= float64(n - 1)
	}
	return sum
}

// Eccentricity computes, for every vertex, the greatest hop distance to any
// vertex reachable from it. Isolated vertices score 0.
func Eccentricity(eng *parallel.Engine, g *Graph) []float64 {
	out := make([]float64, g.NumVertices())
	levelHistograms(eng, g, matrixPays, func(src int, hist []int64) { out[src] = float64(len(hist) - 1) })
	return out
}

// EccentricityOf computes one vertex's eccentricity with one BFS.
func EccentricityOf(g *Graph, src int) float64 {
	return float64(len(levelHistogram(g, src)) - 1)
}

// PageRank runs damped power iteration until the L1 change drops below tol
// or maxIter rounds, returning scores summing to ~1. Dangling mass is
// redistributed uniformly.
func PageRank(eng *parallel.Engine, g *Graph, damping float64, tol float64, maxIter int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	deg := g.Degrees()
	for iter := 0; iter < maxIter && !eng.Cancelled(); iter++ {
		dangling := parallel.ReduceWith(eng, n, 0.0, func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				if deg[i] == 0 {
					acc += rank[i]
				}
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
		base := (1-damping)*inv + damping*dangling*inv
		// Pull-based update: next[v] = base + d * sum_{u->v} rank[u]/deg[u].
		// The graph is symmetric, so pulling over v's row visits its
		// in-neighbors.
		eng.ForN(n, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range g.Row(v) {
					sum += rank[u] / float64(deg[u])
				}
				next[v] = base + damping*sum
			}
		})
		delta := parallel.ReduceWith(eng, n, 0.0, func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				d := next[i] - rank[i]
				if d < 0 {
					d = -d
				}
				acc += d
			}
			return acc
		}, func(a, b float64) float64 { return a + b })
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}

// Coreness computes the k-core number of every vertex with the O(m)
// bin-sort peeling algorithm (Batagelj–Zaveršnik).
func Coreness(g *Graph) []int {
	n := g.NumVertices()
	deg := g.Degrees()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)
	vert := make([]int, n)
	for v, d := range deg {
		pos[v] = bin[d]
		vert[pos[v]] = v
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, uu := range g.Row(v) {
			u := int(uu)
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u] = pw
					vert[pu] = w
					pos[w] = pu
					vert[pw] = u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}
