package graph

import (
	"slices"

	"nwhy/internal/parallel"
)

// BetweennessCentrality computes exact betweenness centrality with Brandes'
// algorithm, parallelized over sources: every worker runs independent
// single-source dependency accumulations into a private score array and the
// partials are summed. A source only reaches its own connected component,
// and a component dense enough for matrixPays is walked on its adjacency
// bit matrix (bitBrandesState) instead of its CSR rows (brandesState); the
// two give the same scores. The adjacency must be symmetric. For undirected
// graphs each pair is counted twice by the textbook formulation, so scores
// are halved; with normalized=true they are further scaled by
// 1/((n-1)(n-2)).
func BetweennessCentrality(eng *parallel.Engine, g *Graph, normalized bool) []float64 {
	return betweenness(eng, g, normalized, matrixPays)
}

// matrixPays is the rule that picks the kernel of a component with nc
// vertices and arcs stored arcs: the bit matrix when its nc x ceil(nc/64)
// words are at most half the arcs, so the matrix never outweighs the
// component's CSR column array and a source's word operations stay below
// the arc visits they replace. The constant is read off the crossover table
// of BenchmarkBetweenness (EXPERIMENTS.md, "s-betweenness on a bit
// matrix"): the kernels break even near words = arcs. The level histograms
// take the same rule (BenchmarkLevelHistograms).
func matrixPays(nc, arcs int) bool {
	return nc*((nc+63)/64) <= arcs/2
}

// betweenness sums the Brandes dependencies of every source. Vertices
// without a neighbor are skipped (their dependencies are all exactly zero).
// Grains borrow their worker's kernel state from the engine arena, so a
// call allocates the component plan and the score partials and nothing per
// source. dense is matrixPays everywhere but in the tests and benchmarks
// that pin one kernel.
func betweenness(eng *parallel.Engine, g *Graph, normalized bool, dense func(nc, arcs int) bool) []float64 {
	n := g.NumVertices()
	plan := planComponents(g, dense)
	partials := parallel.NewTLSFor(eng, func() []float64 { return make([]float64, n) })

	// Grain 1: each source is one grain, so cancellation is observed between
	// single-source Brandes accumulations, whatever component they are in.
	eng.For(parallel.BlockedGrain(0, n, 1), func(w, lo, hi int) {
		score := *partials.Get(w)
		for src := lo; src < hi; src++ {
			c := plan.comp[src]
			if c == noComponent {
				continue
			}
			if m := plan.matrix[c]; m != nil {
				st := grabScratch[bitBrandesState](eng, w, bitBrandesStateKey)
				st.ensure(len(m.ids), m.words)
				st.accumulate(m, int(plan.local[src]), score)
				eng.Stash(w, bitBrandesStateKey, st)
			} else {
				st := grabScratch[brandesState](eng, w, brandesStateKey)
				st.ensure(n)
				st.accumulate(g, src, score)
				eng.Stash(w, brandesStateKey, st)
			}
		}
	})

	out := make([]float64, n)
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
		norm := 1 / (float64(n-1) * float64(n-2))
		for i := range out {
			out[i] *= norm
		}
	}
	return out
}

// noComponent labels a vertex without a neighbor.
const noComponent = ^uint32(0)

// componentPlan assigns every source its component and, where the component
// is dense, its bit matrix and its ID in it. Brandes and the level
// histograms share it: a source runs one kernel or the other by its
// component alone.
type componentPlan struct {
	comp   []uint32     // vertex -> component, numbered by least vertex; noComponent if isolated
	local  []uint32     // vertex -> compact ID, set for vertices of matrix components only
	matrix []*bitMatrix // component -> its bit matrix, nil where the kernel walks CSR rows
}

// planComponents labels the components with one serial sweep, O(n + arcs)
// — what a single source costs — and builds the matrix of every component
// dense admits.
func planComponents(g *Graph, dense func(nc, arcs int) bool) *componentPlan {
	n := g.NumVertices()
	p := &componentPlan{comp: make([]uint32, n), local: make([]uint32, n)}
	for i := range p.comp {
		p.comp[i] = noComponent
	}
	var queue []uint32
	for root := 0; root < n; root++ {
		if p.comp[root] != noComponent || g.Degree(root) == 0 {
			continue
		}
		c := uint32(len(p.matrix))
		p.comp[root] = c
		queue = append(queue[:0], uint32(root))
		arcs := 0
		for head := 0; head < len(queue); head++ {
			row := g.Row(int(queue[head]))
			arcs += len(row)
			for _, v := range row {
				if p.comp[v] == noComponent {
					p.comp[v] = c
					queue = append(queue, v)
				}
			}
		}
		var m *bitMatrix
		if dense(len(queue), arcs) {
			m = newBitMatrix(g, queue, p.local)
		}
		p.matrix = append(p.matrix, m)
	}
	return p
}

// bitMatrix is the adjacency of one connected component over compact IDs
// 0..nc-1 that keep the order of the vertex IDs, so a set-bit walk over a
// row meets the neighbors in the order the CSR row lists them.
type bitMatrix struct {
	ids   []uint32 // compact ID -> vertex, ascending
	words int      // per row: ceil(nc/64)
	rows  []uint64 // row v at [v*words, (v+1)*words)
}

// newBitMatrix builds the matrix of the component whose vertices are
// members (any order; copied), recording their compact IDs in local.
func newBitMatrix(g *Graph, members, local []uint32) *bitMatrix {
	ids := slices.Clone(members)
	slices.Sort(ids)
	for i, v := range ids {
		local[v] = uint32(i)
	}
	m := &bitMatrix{ids: ids, words: (len(ids) + 63) / 64}
	m.rows = make([]uint64, len(ids)*m.words)
	for i, v := range ids {
		row := m.row(i)
		for _, u := range g.Row(int(v)) {
			l := local[u]
			row[l>>6] |= 1 << (l & 63)
		}
	}
	return m
}

func (m *bitMatrix) row(v int) []uint64 { return m.rows[v*m.words : (v+1)*m.words] }

// brandesState is one worker's scratch for the CSR walk, reused across
// sources and calls. dist is all -1 between sources; sigma and coef are
// written before they are read.
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
// vertex's dependency into score. The backward pass gathers: a vertex sums
// coef over its BFS successors (one level deeper, final in reverse BFS
// order) — one division per vertex, writes to its own slots only.
func (st *brandesState) accumulate(g *Graph, src int, score []float64) {
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
		score[v] += delta
	}
	for _, v := range order {
		dist[v] = unreachable
	}
	st.order = order
}
