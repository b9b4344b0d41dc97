package graph

import (
	"math/rand"

	"nwhy/internal/parallel"
)

// BetweennessCentrality computes exact betweenness centrality with Brandes'
// algorithm, parallelized over sources: every worker runs independent
// single-source dependency accumulations into a private score array and the
// partials are summed. For undirected graphs each pair is counted twice by
// the textbook formulation, so scores are halved; with normalized=true they
// are further scaled by 1/((n-1)(n-2)).
func BetweennessCentrality(eng *parallel.Engine, g *Graph, normalized bool) []float64 {
	n := g.NumVertices()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	return betweenness(eng, g, sources, normalized, float64(n))
}

// ApproxBetweennessCentrality estimates betweenness from k sampled sources
// (Brandes–Pich style), scaling contributions by n/k.
func ApproxBetweennessCentrality(eng *parallel.Engine, g *Graph, k int, seed int64, normalized bool) []float64 {
	n := g.NumVertices()
	if k >= n {
		return BetweennessCentrality(eng, g, normalized)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	return betweenness(eng, g, perm[:k], normalized, float64(n))
}

// betweenness sums the Brandes dependencies of the given sources, each
// scaled by n/len(sources). Sources without a neighbor are skipped (their
// dependencies are all exactly zero) but still count in the scale. Grains
// borrow their worker's brandesState from the engine arena, so a call
// allocates the score partials and nothing per source.
func betweenness(eng *parallel.Engine, g *Graph, sources []int, normalized bool, n float64) []float64 {
	partials := parallel.NewTLSFor(eng, func() []float64 { return make([]float64, g.NumVertices()) })
	scale := n / float64(len(sources))

	// Grain 1: each source is one grain, so cancellation is observed between
	// single-source Brandes accumulations.
	eng.For(parallel.BlockedGrain(0, len(sources), 1), func(w, lo, hi int) {
		score := *partials.Get(w)
		st := grabScratch[brandesState](eng, w, brandesStateKey)
		st.ensure(g.NumVertices())
		for _, src := range sources[lo:hi] {
			if g.Degree(src) > 0 {
				st.accumulate(g, src, score, scale)
			}
		}
		eng.Stash(w, brandesStateKey, st)
	})

	out := make([]float64, g.NumVertices())
	partials.All(func(s *[]float64) {
		for i, v := range *s {
			out[i] += v
		}
	})
	// Undirected double counting.
	for i := range out {
		out[i] /= 2
	}
	if normalized && n > 2 {
		norm := 1 / ((n - 1) * (n - 2))
		for i := range out {
			out[i] *= norm
		}
	}
	return out
}

// brandesState is one worker's scratch, reused across sources and calls.
// dist is all -1 between sources; sigma and coef are written before they
// are read.
type brandesState struct {
	sigma []float64 // number of shortest paths from the source
	coef  []float64 // (1 + dependency) / sigma, set in reverse BFS order
	dist  []int32
	order []uint32 // vertices in non-decreasing BFS order
}

func (st *brandesState) ensure(n int) {
	if len(st.dist) < n {
		st.sigma, st.coef, st.dist = make([]float64, n), make([]float64, n), make([]int32, n)
		for i := range st.dist {
			st.dist[i] = unreachable
		}
	}
}

// accumulate runs one sequential Brandes pass from src, adding each
// vertex's dependency times scale into score. The backward pass gathers: a
// vertex sums coef over its BFS successors (one level deeper, final in
// reverse BFS order) — one division per vertex, writes to its own slots only.
func (st *brandesState) accumulate(g *Graph, src int, score []float64, scale float64) {
	sigma, coef, dist := st.sigma, st.coef, st.dist
	sigma[src], dist[src] = 1, 0
	order := append(st.order[:0], uint32(src))
	// BFS in order; order doubles as the queue.
	for head := 0; head < len(order); head++ {
		u := order[head]
		next := dist[u] + 1
		for _, v := range g.Row(int(u)) {
			if dist[v] == unreachable {
				dist[v] = next
				sigma[v] = 0
				order = append(order, v)
			}
			if dist[v] == next {
				sigma[v] += sigma[u]
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		next := dist[v] + 1
		sum := 0.0
		for _, w := range g.Row(int(v)) {
			if dist[w] == next {
				sum += coef[w]
			}
		}
		delta := sigma[v] * sum
		coef[v] = (1 + delta) / sigma[v]
		score[v] += delta * scale
	}
	for _, v := range order {
		dist[v] = unreachable
	}
	st.order = order
}
