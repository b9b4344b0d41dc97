package graph

import (
	"container/heap"

	"nwhy/internal/parallel"
)

// WeightedBetweennessCentrality computes exact betweenness centrality on a
// weighted graph with the Dijkstra-based variant of Brandes' algorithm,
// parallelized over sources. Arc weights must be positive. Unweighted
// graphs fall back to the BFS-based implementation.
func WeightedBetweennessCentrality(eng *parallel.Engine, g *Graph, normalized bool) []float64 {
	if !g.Weighted() {
		return BetweennessCentrality(eng, g, normalized)
	}
	n := g.NumVertices()
	partials := parallel.NewTLSFor(eng, func() []float64 { return make([]float64, n) })

	eng.For(parallel.BlockedGrain(0, n, 1), func(w, lo, hi int) {
		score := *partials.Get(w)
		st := grabScratch[weightedBrandesState](eng, w, weightedBrandesStateKey)
		st.ensure(n)
		for src := lo; src < hi; src++ {
			weightedBrandesFromSource(g, src, score, st)
		}
		eng.Stash(w, weightedBrandesStateKey, st)
	})

	out := make([]float64, n)
	partials.All(func(s *[]float64) {
		for i, v := range *s {
			out[i] += v
		}
	})
	for i := range out {
		out[i] /= 2 // undirected double counting
	}
	if normalized && n > 2 {
		norm := 1 / (float64(n-1) * float64(n-2))
		for i := range out {
			out[i] *= norm
		}
	}
	return out
}

// weightedBrandesState is one worker's scratch, reused across sources and
// calls; every source re-initializes the first n entries it uses.
type weightedBrandesState struct {
	dist  []float64
	sigma []float64
	delta []float64
	done  []bool
	order []uint32 // settle order
	pq    distHeap
}

func (st *weightedBrandesState) ensure(n int) {
	if len(st.dist) < n {
		st.dist, st.sigma, st.delta = make([]float64, n), make([]float64, n), make([]float64, n)
		st.done = make([]bool, n)
	}
}

type distItem struct {
	v uint32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(a, b int) bool  { return h[a].d < h[b].d }
func (h distHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// weightedBrandesFromSource runs one Dijkstra-based Brandes accumulation.
func weightedBrandesFromSource(g *Graph, src int, score []float64, st *weightedBrandesState) {
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		st.dist[i] = Inf
		st.sigma[i] = 0
		st.delta[i] = 0
		st.done[i] = false
	}
	st.order = st.order[:0]
	st.pq = st.pq[:0]
	st.dist[src] = 0
	st.sigma[src] = 1
	heap.Push(&st.pq, distItem{uint32(src), 0})

	const eps = 1e-12
	for st.pq.Len() > 0 {
		it := heap.Pop(&st.pq).(distItem)
		if st.done[it.v] {
			continue
		}
		st.done[it.v] = true
		st.order = append(st.order, it.v)
		row := g.Row(int(it.v))
		ws := g.Weights(int(it.v))
		for k, u := range row {
			nd := st.dist[it.v] + ws[k]
			switch {
			case nd < st.dist[u]-eps:
				st.dist[u] = nd
				st.sigma[u] = st.sigma[it.v]
				heap.Push(&st.pq, distItem{u, nd})
			case nd <= st.dist[u]+eps && !st.done[u]:
				st.sigma[u] += st.sigma[it.v]
			}
		}
	}
	// Reverse accumulation over the settle order.
	for i := len(st.order) - 1; i > 0; i-- {
		w := st.order[i]
		coeff := (1 + st.delta[w]) / st.sigma[w]
		row := g.Row(int(w))
		ws := g.Weights(int(w))
		for k, v := range row {
			if st.dist[v]+ws[k] <= st.dist[w]+eps && st.dist[v]+ws[k] >= st.dist[w]-eps {
				st.delta[v] += st.sigma[v] * coeff
			}
		}
		score[w] += st.delta[w]
	}
}
